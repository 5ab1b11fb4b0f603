"""In-memory span recorder that wraps teamscope's public functions.

The package binds many names with ``from ... import``, so wrapping a function
in its defining module is not enough: ``cli``, ``rfe``, ``teamstyle`` and
``commitcls`` hold their own references. :class:`Tracer` rebinds every
``teamscope.*`` module attribute that *is* an original function, records one
span (name, start, end, parent) per call, and restores the originals on exit.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

PACKAGE = "teamscope"

# (module, attribute) of every traced callable; "Class.method" names a method
TARGETS = [
    ("cli", "main"),
    ("ingest", "parse_git_log"),
    ("ingest", "load_commits_jsonl"),
    ("ingest", "load_roster"),
    ("ingest", "build_teams"),
    ("textnorm", "normalize"),
    ("mlcore.tfidf", "fit_tfidf"),
    ("mlcore.tfidf", "tfidf_transform"),
    ("mlcore.logreg", "train_logreg"),
    ("mlcore.logreg", "predict_proba"),
    ("mlcore.rfe", "rfe_select"),
    ("mlcore.forest", "train_forest"),
    ("mlcore.forest", "forest_votes"),
    ("mlcore.serialize", "save_model"),
    ("mlcore.serialize", "load_model"),
    ("mlcore.evaluation", "stratified_kfold"),
    ("mlcore.evaluation", "standardize_apply"),
    ("commitcls", "train_cascade"),
    ("commitcls", "evaluate_cascade"),
    ("commitcls", "label_commits"),
    ("commitcls", "classify_tokens"),
    ("commitcls", "MlStage.fires"),
    ("teamfeat", "build_matrix"),
    ("teamfeat", "extract_features"),
    ("teamstyle", "oracle_label"),
    ("teamstyle", "train_team_model"),
    ("teamstyle", "evaluate_team_model"),
    ("teamstyle", "predict_style_with_confidence"),
    ("teamstyle", "flag_solo_submitters"),
    ("teamstyle", "StyleStage.fires"),
    ("synthgen", "generate_corpus"),
    ("synthgen", "write_corpus"),
]

SPAN_NAMES = [f"{module}.{attr}" for module, attr in TARGETS]


def _count_cells(counts, args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    counts["mlcore.logreg.train_logreg.cells"] += len(X) * len(X[0])


def _count_trees(counts, args, kwargs, result):
    counts["mlcore.forest.train_forest.trees"] += len(result.trees)


def _count_bytes(name):
    def count(counts, args, kwargs, result):
        counts[f"{name}.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

    return count


def _count_commits(counts, args, kwargs, result):
    counts["ingest.commits_loaded"] += len(result)


# per-call work counters, run after the call returns
COUNTERS = {
    "mlcore.logreg.train_logreg": _count_cells,
    "mlcore.forest.train_forest": _count_trees,
    "mlcore.serialize.save_model": _count_bytes("mlcore.serialize.save_model"),
    "mlcore.serialize.load_model": _count_bytes("mlcore.serialize.load_model"),
    "ingest.parse_git_log": _count_commits,
    "ingest.load_commits_jsonl": _count_commits,
}
COUNT_NAMES = [
    "mlcore.logreg.train_logreg.cells",
    "mlcore.forest.train_forest.trees",
    "mlcore.serialize.save_model.bytes",
    "mlcore.serialize.load_model.bytes",
    "ingest.commits_loaded",
]

# Calls of a span directly under a chain of callers: (span, parent, grandparent, ...).
# Set-up and training call the same functions outside these chains.
NESTED_COUNTS = {
    "mlcore.rfe.fits": ("mlcore.logreg.train_logreg", "mlcore.rfe.rfe_select"),
    "inference_transforms": ("mlcore.tfidf.tfidf_transform", "commitcls.MlStage.fires", "commitcls.classify_tokens"),
    "inference_fires": ("commitcls.MlStage.fires", "commitcls.classify_tokens"),
}
# derived ratios: name -> (numerator, denominator), each a span's calls or a nested count
RATIOS = {
    "mlcore.tfidf.transforms_per_message": ("inference_transforms", "commitcls.classify_tokens"),
    "commitcls.stage_fires_per_message": ("inference_fires", "commitcls.classify_tokens"),
    "mlcore.forest.votes_per_stage_eval": ("mlcore.forest.forest_votes", "teamstyle.StyleStage.fires"),
}
RFE_FITS = "mlcore.rfe.fits"


def metric_names() -> list[str]:
    """Every per-layer metric :func:`layer_metrics` reports, in a fixed order."""
    names = [f"{span}.{kind}" for span in SPAN_NAMES for kind in ("calls", "s", "self_s")]
    return names + COUNT_NAMES + list(RATIOS) + [RFE_FITS]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged, so overlapping
    or out-of-bounds child spans never count twice or make self time negative.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counts while installed; usable as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")  # loads every traced module
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attr in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def spans(self):
        """(index, name, start, end, parent) for every recorded span."""
        return zip(range(len(self.starts)), self.names, self.starts, self.ends, self.parents)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, inclusive and self seconds, counts and ratios."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        exclusive: Counter = Counter()
        for idx, name in enumerate(self.names):
            calls[name] += 1
            inclusive[name] += self.ends[idx] - self.starts[idx]
            exclusive[name] += selfs[idx]
        for counted, chain in NESTED_COUNTS.items():
            calls[counted] = sum(1 for idx in range(len(self.names)) if self._under(idx, chain))
        metrics: dict[str, float] = {}
        for span in SPAN_NAMES:
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.s"] = inclusive[span]
            metrics[f"{span}.self_s"] = exclusive[span]
        for name in COUNT_NAMES:
            metrics[name] = self.counts[name]
        for name, (num, den) in RATIOS.items():
            metrics[name] = calls[num] / calls[den] if calls[den] else 0.0
        metrics[RFE_FITS] = calls[RFE_FITS]
        return metrics

    def _under(self, idx: int, chain) -> bool:
        """Whether span ``idx`` and its callers are named ``chain``, innermost first."""
        for name in chain:
            if idx < 0 or self.names[idx] != name:
                return False
            idx = self.parents[idx]
        return True
