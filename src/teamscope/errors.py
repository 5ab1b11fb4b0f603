"""Exception types shared across the toolchain, and the opener of input text.

``DataError`` covers everything caused by bad input data (malformed logs,
schema violations, inconsistent rosters); callers that need a process exit
code map it to 2, leaving other exceptions as internal errors (3).
"""

from contextlib import contextmanager


class DataError(Exception):
    """Input data violates a documented contract."""


class ParseError(DataError):
    """Raw text input could not be parsed; message names the offending line."""


class SchemaError(DataError):
    """A structured record is missing fields or violates an invariant."""


class AmbiguousAuthorError(DataError):
    """A commit author key matches more than one roster member."""


class InsufficientActivityError(DataError):
    """A team has no project part with enough churn to apply the style rubric."""


@contextmanager
def open_text(path, newline=None):
    """Open an input file as UTF-8 text; bytes that do not decode raise a
    DataError naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
