"""Verb reinflection for undone do-support."""

import random

import pytest

from qa2nli.errors import DatasetError
from qa2nli.morphology import VerbLexicon, reinflect


@pytest.fixture(scope="module")
def lexicon():
    return VerbLexicon.bundled()


@pytest.mark.parametrize(
    "lemma, expected",
    [
        ("end", "ended"),
        ("buy", "bought"),
        ("go", "went"),
        ("take", "took"),
        ("cost", "cost"),
        ("meet", "met"),
        ("hold", "held"),
        ("begin", "began"),
        ("build", "built"),
        ("stop", "stopped"),  # consonant doubling is a data row
        ("travel", "traveled"),  # US spelling: no doubling
        ("love", "loved"),
        ("try", "tried"),
        ("play", "played"),  # vowel + y keeps the y
        ("crash", "crashed"),
    ],
)
def test_past(lemma, expected):
    assert reinflect(lemma, "did") == expected


@pytest.mark.parametrize(
    "lemma, expected",
    [
        ("go", "goes"),
        ("do", "does"),
        ("watch", "watches"),
        ("fix", "fixes"),
        ("pass", "passes"),
        ("buzz", "buzzes"),
        ("fly", "flies"),
        ("say", "says"),
        ("be", "is"),
        ("have", "has"),
        ("belong", "belongs"),
    ],
)
def test_third_singular(lemma, expected):
    assert reinflect(lemma, "does") == expected


def test_do_keeps_the_lemma():
    assert reinflect("learn", "do") == "learn"
    assert reinflect("go", "do") == "go"


def test_case_and_whitespace_tolerant():
    assert reinflect(" End ", " DID ") == "ended"
    assert reinflect("Go", "Does") == "goes"


def test_rejected_inputs():
    with pytest.raises(ValueError, match="non-empty"):
        reinflect("", "did")
    with pytest.raises(ValueError, match="do/does/did"):
        reinflect("end", "will")
    with pytest.raises(ValueError, match="do/does/did"):
        reinflect("end", "")


def test_from_file(tmp_path):
    path = tmp_path / "verbs.tsv"
    path.write_text(
        "# comment\npast:zap\tzapped\n3sg:zap\tzaps\n\n", encoding="utf-8"
    )
    lex = VerbLexicon.from_file(path)
    assert lex.past("zap") == "zapped"
    assert lex.third_singular("zap") == "zaps"
    assert lex.past("flip") == "fliped"  # not listed: plain regular rule


def test_from_file_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("past:zap zapped\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1.*key<TAB>value"):
        VerbLexicon.from_file(bad)
    bad.write_text("future:zap\tzapped\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key prefix"):
        VerbLexicon.from_file(bad)
    bad.write_bytes("past:zap\tzapped\npast:caf\u00e9\tcaf\u00e9d\n".encode("latin-1"))
    with pytest.raises(DatasetError) as err:
        VerbLexicon.from_file(bad)
    assert str(err.value) == f"{bad}: line 2: not valid UTF-8"



def test_regular_rules_on_random_lemmas(lexicon):
    """Made-up regular verbs follow the -ed / -s spelling rules."""
    rng = random.Random(97)
    onsets = ["bl", "cr", "dr", "fl", "gr", "pl", "sn", "tr"]
    for _ in range(200):
        lemma = rng.choice(onsets) + rng.choice("aeiou") + rng.choice("bdgkmnpt")
        if lemma in lexicon.irregular_past or lemma in lexicon.irregular_third_singular:
            continue
        past = reinflect(lemma, "did")
        third = reinflect(lemma, "does")
        assert past == lemma + "ed"
        assert third == lemma + "s"
        assert past.islower() and third.islower()
        # endings that demand -es / -ies
        for suffix in ("s", "x", "ch", "sh", "o"):
            word = lemma + suffix
            if word in lexicon.irregular_third_singular:
                continue
            assert reinflect(word, "does") == word + "es"
        wordy = lemma + "y"  # ends consonant + y
        if wordy not in lexicon.irregular_past:
            assert reinflect(wordy, "did") == wordy[:-1] + "ied"
