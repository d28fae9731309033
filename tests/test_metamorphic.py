"""Two metamorphic properties of the rewrite, over every committed parse.

Renaming a proper noun of the question renames it in every candidate and
changes nothing else; two answers of one shape give candidates that differ
only in the answer. A rewrite that followed the iteration order of a set of
strings would break the first under some hash seeds only, so CI runs this
module under fixed PYTHONHASHSEED values too.

A candidate's text is realize(tokens), so each check compares the tokens and
asks that the text follow from them.
"""

import pytest

from qa2nli.analysis import analyze
from qa2nli.conllu import load_conllu
from qa2nli.engine import EngineConfig, plan_question, realize
from qa2nli.errors import NotWhQuestionError, TransformError

_CONFIGS = (EngineConfig(), EngineConfig(copy_wh_phrase=True, emit_alternatives=3))
# Words of the answers and the new name: none is a token of any fixture, so an
# answer's run of tokens is found only where the answer went ("milk" and "the
# mill" would not do: they occur in fixture questions).
_NEW_NAME = "Zorblat"
_SHAPES = (
    ("Zorblat", "Quintex"),
    ("zorblat", "quintex"),
    ("the zorblat", "the quintex"),
    ("1958", "1972"),
    ("Ann Zorblat", "Bo Quintex"),
    ("the Zorblat", "the Quintex"),
)


@pytest.fixture(scope="module")
def analyses(fixtures_dir):
    """Every sentence of the committed CoNLL-U fixtures that analyze accepts."""
    paths = sorted(fixtures_dir.glob("*.conllu"))
    assert len(paths) == 7  # the UD fixtures and their ClearNLP copies
    accepted = []
    for path in paths:
        for sent in load_conllu(path):
            try:
                accepted.append(analyze(sent))
            except NotWhQuestionError:
                pass
    return accepted


def _rewrite(analysis, answer, config):
    """The candidates, or the message of the skip."""
    try:
        return plan_question(analysis, config).realize(answer)
    except TransformError as exc:
        return str(exc)


def _assert_alike(want, got, tokens):
    """got is want's skip, or as many candidates as want with the same ranks
    and rules, tokens(want's, got's) for tokens, and text realized from them."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for old, new in zip(want, got):
        expected = tokens(old.tokens, new.tokens)
        assert new == old._replace(text=realize(expected), tokens=expected), (old, new)


def test_renaming_a_proper_noun_renames_it_in_every_candidate(analyses):
    cases = 0
    for analysis in analyses:
        sent = analysis.question
        start, end = analysis.wh_phrase
        tokens = sent.tokens
        for tok in tokens:
            if tok.upos != "PROPN" or start <= tok.id <= end:
                continue
            renamed = tok._replace(form=_NEW_NAME, lemma=_NEW_NAME)
            copy = analyze(sent._replace(tokens=[renamed if t is tok else t for t in tokens]))

            def renamed_once(before, after, form=tok.form):
                # one token differs, the renamed one: a word of the same form
                # elsewhere in the sentence keeps it
                changed = [(x, y) for x, y in zip(before, after) if x != y]
                assert len(after) == len(before) and changed == [(form, _NEW_NAME)]
                return after

            for config in _CONFIGS:
                for answer in ("milk", "Quintex"):
                    want = _rewrite(analysis, answer, config)
                    _assert_alike(want, _rewrite(copy, answer, config), renamed_once)
                    cases += 1
    assert cases == 1244


def test_answers_of_one_shape_give_candidates_of_one_shape(analyses):
    cases = 0
    for analysis in analyses:
        for config in _CONFIGS:
            for first, second in _SHAPES:
                run, other = tuple(first.split()), tuple(second.split())

                def swapped(before, after):
                    # the first answer's run of tokens, replaced by the second's
                    at = next(i for i in range(len(before)) if before[i : i + len(run)] == run)
                    return before[:at] + other + before[at + len(run) :]

                want, got = _rewrite(analysis, first, config), _rewrite(analysis, second, config)
                _assert_alike(want, got, swapped)
                cases += 1
    assert cases == 8496
