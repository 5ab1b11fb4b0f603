"""The one input-refusal type, the one opener of input files, and the decoders of their bytes.

Every refusal of bad input (a malformed log, a schema violation, an
inconsistent roster, a model file that is not one) is a ``DataError`` whose
text says where: ``FILE line N: what``. The CLI maps it to exit 2 and any
other exception to exit 3. Bad arguments to library functions stay
``ValueError``.
"""

import csv
import io
import json
import os
import stat
from contextlib import contextmanager


class DataError(Exception):
    """Input data violates a documented contract, at ``line`` (the physical
    line on which the offending record ends) of file ``path`` when known."""

    def __init__(self, what: str, *, line: int | None = None):
        super().__init__(what)
        self.what = what
        self.line = line
        self.path = None

    def __str__(self) -> str:
        where = "" if self.path is None else str(self.path)
        if self.line is not None:
            where = f"{where} line {self.line}".lstrip()
        return f"{where}: {self.what}" if where else self.what


@contextmanager
def in_file(path):
    """Make ``path`` the file of a DataError raised in the block that names none."""
    try:
        yield
    except DataError as exc:
        if exc.path is None:
            exc.path = path
        raise


def open_input(path):
    """The regular file ``path``, opened for binary reading without blocking and checked through that
    descriptor: anything else is refused unread (``DataError``), as a read would block on a pipe."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        with in_file(path):
            raise DataError("not a regular file")
    return open(fd, "rb")


def read_input(path) -> bytes:
    """The bytes of the regular file ``path`` (see :func:`open_input`)."""
    with open_input(path) as fh:
        return fh.read()


@contextmanager
def open_text(path, data, newline=None):
    """``data``, the bytes read from ``path`` or the binary file open on it, as UTF-8 text decoded as ``open``
    decodes it; a DataError raised in the block names the file, and bytes that do not decode raise one."""
    binary = io.BytesIO(data) if isinstance(data, bytes) else data
    with in_file(path), io.TextIOWrapper(binary, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text ({exc.reason})") from None


# The C scanner behind json.loads, with the same hooks; called on a line
# stripped of JSON whitespace, it reads what json.loads reads and skips only
# json.loads's per-call set-up.
_scan = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


def jsonl_values(fh):
    """(line, value) for each non-blank line of JSON Lines text, the value
    being what ``json.loads`` reads from the line."""
    for line, text in enumerate(fh, start=1):
        if not text.strip():
            continue
        body = text.strip(_JSON_WHITESPACE)
        try:
            value, end = _scan(body, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(body):  # refused, or data after the value
            value = _json_loads(text, line)
        yield line, value


def _json_loads(text: str, line: int):
    """``json.loads(text)``, a refusal raised as a DataError at ``line``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSON syntax, and integers over the digit limit
        raise DataError(f"invalid JSON: {exc}", line=line) from None
    except RecursionError:
        raise DataError("invalid JSON: nested too deeply", line=line) from None


def csv_rows(fh):
    """(line, row) for each non-blank row of CSV text; ``line`` is the physical
    line on which the row ends, after any quoted field that spans lines."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(str(exc), line=reader.line_num) from None
