"""The golden ledger: the sha256 of every file the whole CLI writes on two
20-team courses, pinned in ``tests/golden.json``.

The pipeline runs every command on seeds 7 and 13: ``synth``; ``ingest``
from a git log and from JSONL; ``train-commits``; ``eval-commits`` in json
and csv; ``label-commits``; ``features``; ``train-teams``, ``eval-teams``,
``predict`` and ``flag`` for both algorithms; and ``registry --out``. It
runs in one child interpreter with one BLAS thread, because model bytes
depend on the thread count. Each manifest is hashed without its ``code``
key, so an edit that keeps every output keeps the ledger.

A change that alters output bytes on purpose regenerates the ledger with

    PYTHONPATH=src python tests/test_golden.py --write

which prints each entry it adds, removes or changes, one line each, and
names each of them, and why it changed, in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from teamscope.cli import main
from teamscope.ingest import COMMIT_HEADER_MARK, load_commits_jsonl

LEDGER = Path(__file__).with_name("golden.json")
SEEDS = (7, 13)
TEAMS = 20
ALGORITHMS = ("forest", "logistic_rfe")


def _pipeline(work: Path, seed: int) -> None:
    """Every command on the ``seed`` course, each writing under ``work``."""
    corpus, data = work / "corpus", work / "dataset"

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*map(str, argv), "--seed", str(seed)]) == 0, argv

    run("synth", "--teams", TEAMS, "--out", corpus)
    commits = load_commits_jsonl(corpus / "commits.jsonl")
    truth = dict(line.split(",") for line in (corpus / "truth_commits.csv").read_text().splitlines()[1:])
    with open(work / "history.gitlog", "w", encoding="utf-8") as fh:
        for c in commits:
            fh.write(f"{COMMIT_HEADER_MARK}{c.sha}|{c.author_key}|{c.author_key}|{c.timestamp}|{c.message}\n")
            fh.writelines(f"{'-' if f.binary else f.additions}\t{'-' if f.binary else f.deletions}\t{f.path}\n"
                          for f in c.files)
    with open(work / "tagged.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("message", "category"), *((c.message, truth[c.sha]) for c in commits)])

    roster = corpus / "roster.csv"
    run("ingest", "--gitlog", work / "history.gitlog", "--roster", roster, "--out", work / "from_gitlog")
    run("ingest", "--jsonl", corpus / "commits.jsonl", "--roster", roster, "--out", data)
    run("train-commits", "--tagged", work / "tagged.csv", "--out", work / "commit_model")
    for fmt in ("json", "csv"):
        run("eval-commits", "--tagged", work / "tagged.csv", "--format", fmt, "--folds", 3,
            "--out", work / f"commit_eval_{fmt}")
    run("label-commits", "--model", work / "commit_model" / "cascade.json", "--data", data)
    run("features", "--data", data)
    styles = ("--styles", corpus / "truth_teams.csv")
    for algorithm in ALGORITHMS:
        models = work / f"team_model_{algorithm}"
        model = models / f"teams_{algorithm}.json"
        run("train-teams", "--data", data, "--algorithm", algorithm, *styles, "--out", models)
        run("eval-teams", "--data", data, "--algorithm", algorithm, *styles, "--folds", 3,
            "--out", work / f"team_eval_{algorithm}")
        run("predict", "--model", model, "--data", data, "--out", work / f"predict_{algorithm}")
        run("flag", "--model", model, "--data", data, "--out", work / f"flag_{algorithm}")
    run("registry", "--out", work / "registry")


def _digest(path: Path) -> str:
    """The sha256 of a file's bytes; of a manifest's JSON without ``code``."""
    data = path.read_bytes()
    if path.name.startswith("manifest_"):
        manifest = json.loads(data)
        del manifest["code"]
        data = json.dumps(manifest, sort_keys=True, indent=1, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _run(work: Path) -> dict:
    """Run the pipeline on each seed under ``work``: each file's digest by its path there."""
    for seed in SEEDS:
        _pipeline(work / f"seed{seed}", seed)
    return {p.relative_to(work).as_posix(): _digest(p) for p in sorted(work.rglob("*")) if p.is_file()}


def ledger(work: Path) -> dict:
    """:func:`_run` in a child interpreter with one BLAS thread."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, __file__, str(work)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_output_keeps_its_bytes(tmp_path):
    pinned = json.loads(LEDGER.read_text(encoding="utf-8"))
    got = ledger(tmp_path)
    changed = sorted(name for name in pinned.keys() | got.keys() if pinned.get(name) != got.get(name))
    assert not changed, f"files whose bytes differ from tests/golden.json: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        pinned = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}
        with tempfile.TemporaryDirectory() as tmp:
            got = ledger(Path(tmp))
        for name in sorted(pinned.keys() | got.keys()):
            if pinned.get(name) != got.get(name):
                print("added" if name not in pinned else "removed" if name not in got else "changed", name)
        LEDGER.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    else:
        print(json.dumps(_run(Path(sys.argv[1]))))
