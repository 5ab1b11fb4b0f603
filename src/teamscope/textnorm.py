"""Commit-message normalization: tokens, stopwords, lemmas, meaningfulness.

Commit messages are short and full of course jargon, so normalization is a
small rule table rather than a full NLP stack: lowercase alphanumeric
tokens, a bundled stopword list, an exception-map-plus-suffix lemmatizer,
and a meaningfulness test against an English-plus-domain lexicon. All word
lists ship as plain-text data files (one lowercase word per line); the
lexicon's three can be swapped out via :func:`load_lexicon`, and the lemma
exception table is always the bundled one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path

from .errors import DataError, open_text, read_input

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

REQUIRED_DOMAIN_WORDS = frozenset(
    {"bbtp", "ts", "javadoc", "pmd", "checkstyle", "spotbugs", "gui", "todo"}
)


@dataclass(frozen=True)
class Lexicon:
    """Word sets backing stopword removal and the meaningfulness test."""

    english_words: frozenset[str]
    domain_words: frozenset[str]
    stopwords: frozenset[str]

    def __post_init__(self):
        missing = REQUIRED_DOMAIN_WORDS - self.domain_words
        if missing:
            raise ValueError(f"domain word list is missing {sorted(missing)}")
        for name in ("english_words", "domain_words", "stopwords"):
            words = getattr(self, name)
            bad = [w for w in words if w != w.lower() or not w]
            if bad:
                raise ValueError(f"{name} must be non-empty lowercase: {bad[:5]}")

    @cached_property
    def meaningful_words(self) -> frozenset[str]:
        return self.english_words | self.domain_words


def tokenize(message: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run; digits are kept."""
    return [t for t in _TOKEN_SPLIT.split(message.lower()) if t]


def remove_stopwords(tokens: list[str], lexicon: Lexicon) -> list[str]:
    return [t for t in tokens if t not in lexicon.stopwords]


def lemmatize(tokens: list[str]) -> list[str]:
    """Map each token through the bundled exception table, then one suffix rule.

    Suffix rules, in order: ``ies -> y``; ``sses -> ss``; ``ing`` dropped
    when the stem keeps >= 3 chars; ``ed`` dropped likewise; a trailing
    ``s`` dropped when the stem keeps >= 3 chars and the token does not end
    in ``ss``. At most one rule fires per token.
    """
    exceptions = lemma_table()
    return [_lemma(t, exceptions) for t in tokens]


def _lemma(token: str, exceptions: dict[str, str]) -> str:
    hit = exceptions.get(token)
    if hit is not None:
        return hit
    if token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ing") and len(token) >= 6:
        return token[:-3]
    if token.endswith("ed") and len(token) >= 5:
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and len(token) >= 4:
        return token[:-1]
    return token


def meaningful_ratio(tokens: list[str], lexicon: Lexicon) -> float:
    """Fraction of tokens found in the English-plus-domain word sets."""
    if not tokens:
        return 0.0
    words = lexicon.meaningful_words
    return sum(1 for t in tokens if t in words) / len(tokens)


def normalize(message: str, lexicon: Lexicon) -> list[str]:
    """Full preprocessing chain: tokenize, drop stopwords, lemmatize."""
    return lemmatize(remove_stopwords(tokenize(message), lexicon))


# ---------------------------------------------------------------------------
# bundled word lists


def read_entries(name: str) -> list[str]:
    """The entries of the bundled data file ``name`` (word list, keyword list, template pool),
    in file order: one per line, stripped, skipping blank lines and ``#`` lines."""
    with open_text(*_bundled(name)) as fh:
        return [entry for _, entry in _entries(fh)]


def _entries(fh):
    """(line, entry) for each entry of an open data file (see :func:`read_entries`)."""
    for line, text in enumerate(fh, start=1):
        entry = text.strip()
        if entry and not entry.startswith("#"):
            yield line, entry


def _read_words(path, data: bytes, required=frozenset()) -> frozenset[str]:
    """The words of the word-list file ``data`` read from ``path``: a word that is not lowercase,
    or a missing ``required`` word, would fail :class:`Lexicon`'s checks, so it is refused."""
    words = set()
    with open_text(path, data) as fh:
        for line, word in _entries(fh):
            if word != word.lower():
                raise DataError(f"word {word!r} is not lowercase", line=line)
            words.add(word)
        missing = required - words
        if missing:
            raise DataError(f"domain word list is missing {sorted(missing)}")
    return frozenset(words)


def _bundled(name: str) -> tuple[Path, bytes]:
    path = Path(resources.files("teamscope") / "data" / name)
    return path, read_input(path)


def load_lexicon(english=None, domain=None, stopwords=None) -> Lexicon:
    """A lexicon of three word-list files, each its path and the bytes read from it, or None for the bundled one."""
    return Lexicon(
        english_words=_read_words(*(english or _bundled("english_words.txt"))),
        domain_words=_read_words(*(domain or _bundled("domain_words.txt")), REQUIRED_DOMAIN_WORDS),
        stopwords=_read_words(*(stopwords or _bundled("stopwords.txt"))),
    )


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    return load_lexicon()


@lru_cache(maxsize=1)
def lemma_table() -> dict[str, str]:
    """The bundled surface-form -> lemma table (two words per line)."""
    table: dict[str, str] = {}
    for entry in read_entries("lemma_table.txt"):
        surface, lemma = entry.split()
        table[surface] = lemma
    return table
