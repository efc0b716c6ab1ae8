"""Tokenization and rule-based lemmatization.

Identifiers split on underscores, punctuation, and camelCase boundaries;
phrases split on whitespace and punctuation.  Lemmatization is a small
deterministic rule cascade (plural stripping, -ing/-ed stripping with
doubling repair) behind an exception map for common irregular forms.

The rules are intentionally modest: their only job is to make phrase tokens
and schema-identifier tokens meet at a shared form, and golden tests pin the
outputs the rest of the package relies on.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Tuple

__all__ = ["STOP_WORDS", "tokenize", "lemmatize", "content_lemmas"]

STOP_WORDS = frozenset(
    """
    a an the of in on at by for with to from and or both not no
    is are was were be been being do does did have has had
    that which who whom whose what where when how
    all each every some any this these those
    their its his her they them there then than as also return me my us we you
    """.split()
)

# Irregular or silent-e forms the suffix rules cannot recover.
_LEMMA_EXCEPTIONS: Dict[str, str] = {
    "caused": "cause",
    "used": "use",
    "named": "name",
    "injured": "injure",
    "died": "die",
    "wrote": "write",
    "written": "write",
    "made": "make",
    "men": "man",
    "women": "woman",
    "people": "person",
    "children": "child",
    "feet": "foot",
    "mice": "mouse",
    "geese": "goose",
}

_VOWELS = set("aeiou")
# Consonants whose doubling usually marks inflection (planned, starred).
_DOUBLING = set("bdgmnprt")

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Za-z])(?=[0-9])")
_SPLIT = re.compile(r"[^A-Za-z0-9]+")


def tokenize(text: str) -> Tuple[str, ...]:
    """Split an identifier or phrase into lowercased tokens."""
    spaced = _CAMEL.sub(" ", text)
    return tuple(t.lower() for t in _SPLIT.split(spaced) if t)


def _undouble(stem: str) -> str:
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] in _DOUBLING:
        return stem[:-1]
    return stem


def _repair_e(stem: str) -> str:
    # make -> mak -> make, but meet -> meet stays (double vowel before the
    # final consonant signals no silent e).
    if (
        len(stem) >= 3
        and stem[-1] not in _VOWELS
        and stem[-1] not in "wxy"
        and stem[-2] in _VOWELS
        and stem[-3] not in _VOWELS
    ):
        return stem + "e"
    return stem


def lemmatize(token: str) -> str:
    """Reduce one lowercased token to its lemma."""
    if token in _LEMMA_EXCEPTIONS:
        return _LEMMA_EXCEPTIONS[token]
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 4 and token.endswith("ied"):
        return token[:-3] + "y"
    if len(token) > 4 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    if len(token) > 5 and token.endswith("ing"):
        stem = token[:-3]
        undoubled = _undouble(stem)
        # A doubled consonant marks a short stem; silent-e repair would
        # turn run(n)ing into "rune".
        return undoubled if undoubled != stem else _repair_e(stem)
    if len(token) > 4 and token.endswith("ed"):
        return _undouble(token[:-2])
    return token


def content_lemmas(tokens: Iterable[str]) -> Tuple[str, ...]:
    """Lemmas of the non-stop-word tokens, deduplicated, order preserved."""
    out = []
    for token in tokens:
        if token in STOP_WORDS:
            continue
        lemma = lemmatize(token)
        if lemma and lemma not in out:
            out.append(lemma)
    return tuple(out)
