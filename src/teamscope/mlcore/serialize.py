"""Versioned JSON envelopes for fitted models.

Every model file is ``{"format": "teamscope-model", "version": 3, "kind":
<kind>, "model": <payload>}`` dumped with sorted keys, so identical models
serialize to identical bytes and reloading reproduces bit-identical
predictions (JSON round-trips Python floats exactly). A version 3 payload
holds what fitting learned and what the training inputs chose: terms, idf,
weights, trees, standardization, selected columns and the lexicon. What the
code fixes (stage order, gibberish threshold, n-gram range, forest shape) is
not written. Files of any other version are refused and must be produced
again by retraining. Numbers that ``json`` would read as non-finite floats
(``NaN``, ``Infinity``, ``1e999``) are refused, and :func:`floats` reads a
model's real-valued fields as JSON numbers only.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..errors import SchemaError, open_text

FORMAT_NAME = "teamscope-model"
FORMAT_VERSION = 3


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False)


def dumps_model(kind: str, payload: dict) -> str:
    return canonical_json(
        {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "kind": kind,
            "model": payload,
        }
    )


def save_model(path, kind: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(kind, payload))
        fh.write("\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {text}")
    return value


def floats(value, name: str):
    """A model's number, or list of numbers, as a float or a float64 array.

    Only JSON integers and floats pass: ``float()`` and numpy would read
    ``true`` as 1.0 and the string ``"1e3"`` as 1000.0.
    """
    items = value if isinstance(value, list) else [value]
    bad = [v for v in items if type(v) not in (int, float)]
    if bad:
        raise SchemaError(f"{name} must hold JSON numbers, got {bad[0]!r}")
    return np.array(value, dtype=np.float64) if isinstance(value, list) else float(value)


def load_model(path, expected_kind: str) -> dict:
    with open_text(path) as fh:
        try:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except ValueError as exc:
            # undecodable bytes, and JSON syntax errors such as a truncated file
            raise SchemaError(f"not a {FORMAT_NAME} file ({exc})") from None
        if not isinstance(raw, dict) or raw.get("format") != FORMAT_NAME:
            raise SchemaError(f"not a {FORMAT_NAME} file")
        if raw.get("version") != FORMAT_VERSION:
            raise SchemaError(
                f"unsupported model version {raw.get('version')!r} "
                f"(this teamscope reads version {FORMAT_VERSION}); retrain the model"
            )
        if raw.get("kind") != expected_kind:
            raise SchemaError(f"expected a {expected_kind!r} model, found {raw.get('kind')!r}")
    return raw["model"]
