"""Versioned JSON envelopes for fitted models.

Every model file is ``{"format": "teamscope-model", "version": 4, "kind":
<kind>, "model": <payload>}`` dumped with sorted keys, so identical models
serialize to identical bytes and reloading reproduces bit-identical
predictions (JSON round-trips Python floats exactly). A version 4 payload
holds what fitting learned and what the training inputs chose: terms, idf,
weights, standardization, selected columns, the lexicon, and each forest as
the node arrays and tree roots it has in memory. What the code fixes (stage
order, gibberish threshold, n-gram range, forest shape) is not written, but
for each logistic model's ``l2_lambda``: every CLI fit uses the code's 1.0.
Files of any other version are refused and must be produced by retraining.

Each object of a model file, the envelope included, is read by
:func:`fields`, which declares its keys once: a missing key, or one it does
not declare, is refused before any value is used. Each value is read by this
module's reader of its kind, which refuses any other JSON type, an integer
beyond int64, a number beyond float64 and a non-finite number (``NaN``,
``Infinity``, ``-Infinity``, or a literal such as ``1e999`` that ``json``
reads as infinite), naming the field (``idf must be finite, got NaN``), so
every refusal is a ``DataError``.
"""

from __future__ import annotations

import json
import math
import reprlib
from itertools import chain

import numpy as np

from ..errors import DataError, open_text, write_output

FORMAT_NAME = "teamscope-model"
FORMAT_VERSION = 4


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


def save_model(path, kind: str, payload: dict) -> str:
    """Write the ``kind`` model file of ``payload`` to ``path``; the sha256 of its bytes."""
    return write_output(path, [dumps_model(kind, payload), "\n"])


# json reads true/false as bool, a subclass of int, so the readers compare
# types exactly: a boolean is never read as 1/0, nor 1.5 as an integer
_NUMBER, _INTEGER = frozenset((int, float)), frozenset((int,))


def _listed(value, kinds, name: str, what: str) -> list:
    """``value``, a JSON list whose items' types are all in ``kinds``, found in one C-level pass."""
    if type(value) is not list:
        raise DataError(f"{name} must be a list of {what}, got {reprlib.repr(value)}")
    if not kinds.issuperset(map(type, value)):
        bad = next(v for v in value if type(v) not in kinds)
        raise DataError(f"{name} must hold {what}, got {reprlib.repr(bad)}")
    return value


def _array(value, kinds, dtype, name: str, what: str) -> np.ndarray:
    """``value`` as read by :func:`_listed`, as an array of ``dtype`` that holds every item, each finite."""
    items = _listed(value, kinds, name, what)
    try:
        array = np.array(items, dtype=dtype)
    except OverflowError:  # a JSON integer beyond the dtype's range
        raise DataError(f"{name} must hold {what} within {np.dtype(dtype).name} range") from None
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        bad = next(v for v in items if not math.isfinite(v))
        raise DataError(f"{name} must be finite, got {json.dumps(bad)}")
    return array


def number(value, name: str) -> float:
    """A field holding one JSON number, as a float."""
    return float(_array([value], _NUMBER, np.float64, name, "one JSON number")[0])


def integer(value, name: str) -> int:
    """A field holding one JSON integer."""
    return int(_array([value], _INTEGER, np.int64, name, "one JSON integer")[0])


def string(value, name: str) -> str:
    """A field holding one JSON string."""
    return _listed([value], {str}, name, "one JSON string")[0]


def numbers(value, name: str) -> np.ndarray:
    """A field holding a list of JSON numbers, as a float64 array."""
    return _array(value, _NUMBER, np.float64, name, "JSON numbers")


def integers(value, name: str) -> np.ndarray:
    """A field holding a list of JSON integers, as an int64 array."""
    return _array(value, _INTEGER, np.int64, name, "JSON integers")


def pairs(value, name: str) -> np.ndarray:
    """A field holding a list of two-integer lists, as an (n, 2) int64 array."""
    rows = _listed(value, {list}, name, "pairs of JSON integers")
    if not {2}.issuperset(map(len, rows)):
        raise DataError(f"{name} must hold pairs of JSON integers")
    return integers(list(chain.from_iterable(rows)), name).reshape(-1, 2)


def strings(value, name: str) -> list[str]:
    """A field holding a list of JSON strings."""
    return _listed(value, {str}, name, "JSON strings")


def objects(value, name: str) -> list[dict]:
    """A field holding a list of JSON objects, each to be read by :func:`fields`."""
    return _listed(value, {dict}, name, "JSON objects")


def nested(model_cls):
    """The reader of a field holding one model object, read by ``model_cls.from_dict``."""
    return lambda value, name: model_cls.from_dict(value)


def fields(raw, prefix: str, **readers) -> list:
    """The values of the JSON object ``raw``, in the order of ``readers``, each
    read as ``reader(raw[key], prefix + key)``.

    ``raw`` must hold each declared key and no other. Refused, in this order:
    a value that is not a JSON object, the first declared key it lacks, and
    a key it holds that is not declared.
    """
    if type(raw) is not dict:
        raise DataError(f"expected a JSON object of {', '.join(readers)}, got {reprlib.repr(raw)}")
    for key in readers:
        if key not in raw:
            raise DataError(f"the model has no key {key!r}")
    if len(raw) > len(readers):
        unknown = next(key for key in raw if key not in readers)
        raise DataError(f"unknown key {unknown!r}")
    return [reader(raw[key], prefix + key) for key, reader in readers.items()]


def load_model(path, data: bytes, expected_kind: str) -> dict:
    with open_text(path, data) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            # undecodable bytes, and JSON syntax errors such as a truncated file
            raise DataError(f"not a {FORMAT_NAME} file ({exc})") from None
        except RecursionError:
            raise DataError(f"not a {FORMAT_NAME} file (nested too deeply)") from None
        if not isinstance(raw, dict) or raw.get("format") != FORMAT_NAME:
            raise DataError(f"not a {FORMAT_NAME} file")
        # 4.0 == 4 in Python, but the version is the JSON integer 4
        if type(raw.get("version")) is not int or raw["version"] != FORMAT_VERSION:
            raise DataError(
                f"unsupported model version {raw.get('version')!r} "
                f"(this teamscope reads version {FORMAT_VERSION}); retrain the model"
            )
        if raw.get("kind") != expected_kind:
            raise DataError(f"expected a {expected_kind!r} model, found {raw.get('kind')!r}")
        # the payload is read by its model's from_dict
        *_, payload = fields(raw, "", format=string, version=integer, kind=string, model=lambda value, name: value)
    return payload
