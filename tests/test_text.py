"""Tokenization and lemmatization goldens.

The linker only works when phrase tokens and identifier tokens reduce to
the same form, so these pin the exact outputs for the identifiers and
phrase words the rest of the suite leans on.
"""

import pytest
from hypothesis import given, strategies as st

from qdmr2sql.text import content_lemmas, lemmatize, tokenize


@pytest.mark.parametrize(
    "text,tokens",
    [
        ("caused_by_ship_id", ("caused", "by", "ship", "id")),
        ("Caused_By_Ship_Id", ("caused", "by", "ship", "id")),
        ("productTypeCode", ("product", "type", "code")),
        ("top5Rank", ("top", "5", "rank")),
        ("the name of #4", ("the", "name", "of", "4")),
        ("H. V. Jagadish", ("h", "v", "jagadish")),
        ("", ()),
    ],
)
def test_tokenize(text, tokens):
    assert tokenize(text) == tokens


@pytest.mark.parametrize(
    "token,lemma",
    [
        ("ships", "ship"),
        ("injuries", "injury"),
        ("caused", "cause"),
        ("injured", "injure"),
        ("killed", "kill"),
        ("states", "state"),
        ("votes", "vote"),
        ("voting", "vote"),
        ("writes", "write"),
        ("wrote", "write"),
        ("papers", "paper"),
        ("cities", "city"),
        ("studied", "study"),
        ("classes", "class"),
        ("boxes", "box"),
        ("churches", "church"),
        ("planned", "plan"),
        ("running", "run"),
        ("making", "make"),
        ("meeting", "meet"),
        ("address", "address"),
        ("status", "status"),
        ("id", "id"),
        ("is", "is"),
    ],
)
def test_lemmatize(token, lemma):
    assert lemmatize(token) == lemma


def test_rules_alone_decide_the_lemma():
    assert lemmatize("ships") == "ship"


def test_content_lemmas_drop_stop_words_and_dedupe():
    tokens = tokenize("the names of the ships")
    assert content_lemmas(tokens) == ("name", "ship")
    assert content_lemmas(tokenize("ship of ships")) == ("ship",)


def test_content_lemmas_identifier_path():
    assert content_lemmas(tokenize("caused_by_ship_id")) == ("cause", "ship", "id")
    assert content_lemmas(tokenize("treasurer_vote")) == ("treasurer", "vote")


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)))
def test_property_tokens_are_lowercase_alnum(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token.isalnum()


@given(st.from_regex(r"[a-z]{1,12}", fullmatch=True))
def test_property_lemmatize_idempotent_on_nouns(token):
    # Lemmas of plural-looking forms must themselves be stable.
    once = lemmatize(token)
    assert lemmatize(once) == lemmatize(once)
