"""Declarative rewrite engine: realization, prepositions, articles, transform."""

import json
import pickle
import string
from copy import deepcopy
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qa2nli import conllu, engine
from qa2nli.analysis import _UD_LABELS, QuestionType, _as_ud, analyze
from qa2nli.conllu import DepSentence, DepToken, load_conllu, parse_conllu
from qa2nli.engine import (
    DeclarativeCandidate,
    EngineConfig,
    PrepositionTable,
    insert_article,
    plan_question,
    realize,
    transform,
    undo_inversion,
)
from qa2nli.errors import AnalysisError, DatasetError, NotWhQuestionError, TransformError
from qa2nli.metrics import normalize
from qa2nli.morphology import VerbLexicon
from qa2nli.nli import AnswerOption, QAExample, build_pairs


@pytest.fixture(scope="module")
def table():
    return PrepositionTable.bundled()


# -- realize -------------------------------------------------------------


def test_realize_plain():
    assert realize(["Liz", "bought", "milk"]) == "Liz bought milk."


def test_realize_punctuation_glue():
    assert realize(["Yes", ",", "she", "did"]) == "Yes, she did."
    assert realize(["the", "dog", "'s", "name"]) == "The dog's name."
    assert realize(["it", "is", "n't", "here"]) == "It isn't here."
    assert realize(["(", "almost", ")", "done"]) == "(Almost) done."
    assert realize(["it", "rose", "50", "%"]) == "It rose 50%."


def test_realize_capitalizes_first_letter():
    assert realize(["the", "war", "ended"]) == "The war ended."
    # scans past leading digits to the first alphabetic character
    assert realize(["50", "people", "attended"]) == "50 People attended."


def test_realize_terminal_period():
    assert realize(["Liz", "won", "."]) == "Liz won."
    assert realize(["it", "opens", "at", "9", "a.m."]) == "It opens at 9 a.m."


def test_realize_drops_question_marks():
    assert realize(["Liz", "won", "?"]) == "Liz won."


def test_realize_rejects_a_question_mark_inside_a_token():
    with pytest.raises(ValueError, match="may not contain '\\?'"):
        realize(["Liz", "left?"])
    assert realize(["Liz", "left", "?"]) == "Liz left."


# Tokens that _join must space one at a time (an empty token, each closing
# token, an apostrophe or opening bracket alone or inside a word), and two
# that it need not: one holding a space, and a character outside the Basic
# Multilingual Plane.
_JOIN_POOL = ("", *sorted(engine._CLOSING), "'s", "it's", "(", "x(", "[", "{", "a b", "\U0001d11e")


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(
    st.lists(st.one_of(st.text(), st.sampled_from(_JOIN_POOL)), max_size=8),
    st.sampled_from(["", "Liz", "Liz (", "x[", "{"]),
)
@example(["", "the"], "")
@example(["left", "early"], "Liz")
def test_join_equals_the_token_by_token_oracle(tokens, text):
    assert engine._join(tuple(tokens), text) == oracles.oracle_join(tokens, text)


def test_realize_empty():
    with pytest.raises(ValueError, match="nothing to realize"):
        realize([])
    with pytest.raises(ValueError, match="nothing to realize"):
        realize(["?", "", "?"])


# -- articles and prepositions --------------------------------------------


def test_insert_article():
    assert insert_article("UN") == "the UN"
    assert insert_article("the UN") == "the UN"  # idempotent
    assert insert_article("WHO") == "WHO"  # deliberately unlisted
    assert insert_article("un") == "un"  # case-sensitive
    assert insert_article("UN headquarters") == "UN headquarters"


def test_insert_article_custom_exceptions():
    assert insert_article("Guild", exceptions={"Guild"}) == "the Guild"
    assert insert_article("UN", exceptions={"Guild"}) == "UN"


@pytest.mark.parametrize("answer", ["U", "UN"])
def test_insert_article_refuses_a_str_of_exceptions(answer):
    """A str would read as the set of its characters: "U" would become "the U"."""
    with pytest.raises(TypeError, match="^exceptions must be an iterable of names, not the str"):
        insert_article(answer, "UN")


def test_table_rejects_unknown_keys(tmp_path):
    with pytest.raises(TypeError, match="tuesdays"):
        PrepositionTable(tuesdays=frozenset({"x"}))
    path = tmp_path / "prep.tsv"
    path.write_text("month\tMay\ntuesdays\tx\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        PrepositionTable.from_file(path)
    assert str(err.value) == f"{path}: line 2: unknown preposition-table key 'tuesdays'"


def test_table_from_file(tmp_path):
    path = tmp_path / "prep.tsv"
    path.write_text(
        "# custom\nmonth\tSmarch\narticle_org\tGuild\n", encoding="utf-8"
    )
    t = PrepositionTable.from_file(path)
    assert "smarch" in t.months  # lowercased on load
    assert "Guild" in t.article_orgs  # except article_org
    path.write_text("month Smarch\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1.*key<TAB>value"):
        PrepositionTable.from_file(path)
    path.write_bytes("month\tMay\nat_location\tcaf\u00e9\n".encode("latin-1"))
    with pytest.raises(DatasetError) as err:
        PrepositionTable.from_file(path)
    assert str(err.value) == f"{path}: line 2: not valid UTF-8"


def test_bundled_table_is_cached():
    assert PrepositionTable.bundled() is PrepositionTable.bundled()


@pytest.mark.parametrize(
    "make",
    [
        EngineConfig,
        PrepositionTable.bundled,
        PrepositionTable,
        VerbLexicon,
        VerbLexicon.bundled,
        lambda: EngineConfig(lexicon=VerbLexicon(), table=PrepositionTable()),
    ],
    ids=[
        "EngineConfig", "bundled", "PrepositionTable", "VerbLexicon", "VerbLexicon.bundled",
        "EngineConfig-empty-lists",
    ],
)
def test_table_survives_pickle_and_deepcopy(make):
    original = make()
    for copy in (pickle.loads(pickle.dumps(original)), deepcopy(original)):
        assert copy is not original and copy == original


def test_table_has_only_its_lists():
    table = PrepositionTable(months=frozenset({"may"}))
    with pytest.raises(AttributeError):
        table.month = frozenset({"june"})  # the list is months
    assert table.months == frozenset({"may"}) and table.weekdays == frozenset()
    assert table != PrepositionTable(months=frozenset({"june"}))


def test_when_and_where_options_tokenize_the_answer_once(monkeypatch, table):
    calls = []
    match_tokens = engine._match_tokens

    def counting(text):
        calls.append(text)
        return match_tokens(text)

    monkeypatch.setattr(engine, "_match_tokens", counting)
    assert table.when_options("August 16, 1958") == ["on", "in"]
    assert table.where_options("the store", "go") == ["to", "at", "in"]
    assert table.where_options("in Paris", "go") == []  # suppressed: still one call
    assert calls == ["August 16, 1958", "the store", "in Paris"]


def test_punctuation_constant_is_string_punctuation():
    # conllu writes the constant out, for engine and metrics, rather than
    # import string at start-up
    assert conllu._PUNCTUATION == string.punctuation


def test_starts_suppressed(table):
    assert table.starts_suppressed("in Paris", QuestionType.WHERE)
    assert table.starts_suppressed("In 1945,", QuestionType.WHEN)
    assert table.starts_suppressed("yesterday", QuestionType.WHEN)
    assert not table.starts_suppressed("yesterday", QuestionType.WHERE)
    assert not table.starts_suppressed("Paris", QuestionType.WHERE)
    assert table.starts_suppressed("abroad", QuestionType.WHERE)
    assert not table.starts_suppressed("", QuestionType.WHEN)


@pytest.mark.parametrize(
    "answer, options",
    [
        ("August 16, 1958", ["on", "in"]),  # full date first, month fallback
        ("Friday", ["on", "in"]),
        ("9 a.m.", ["at", "in"]),
        ("noon", ["at", "in"]),
        ("eight o'clock", ["at", "in"]),
        ("March", ["in"]),
        ("summer", ["in"]),
        ("1958", ["in"]),
        ("the 1950s", ["in"]),
        ("12/06/1944", ["on", "in"]),
        ("the morning", ["in"]),
        ("yesterday", []),  # standalone temporal adverb: nothing to add
        ("in 1958", []),
        # deictic time phrases stand alone too
        ("next week", []),
        ("last year", []),
        ("this morning", []),
        ("every Sunday", []),
        ("Each summer", []),
    ],
)
def test_when_options(table, answer, options):
    assert table.when_options(answer) == options


@pytest.mark.parametrize(
    "answer, lemma, options",
    [
        ("the museum", "work", ["at", "in"]),
        ("Paris", "go", ["to", "in"]),
        ("the hospital", "go", ["to", "at", "in"]),
        ("Paris", "work", ["in"]),
        ("Paris", None, ["in"]),
        ("at the station", "work", []),
    ],
)
def test_where_options(table, answer, lemma, options):
    assert table.where_options(answer, lemma) == options


def _prep_rules(analysis, answer):
    """The prep:* rules of the rank-1 candidate: the preposition chosen."""
    return [r for r in transform(analysis, answer)[0].applied_rules if r.startswith("prep:")]


def test_select_preposition_table_cases(qa2d_parses):
    born = analyze(qa2d_parses["f03"])
    assert _prep_rules(born, "August 16, 1958") == ["prep:on(table)"]
    assert _prep_rules(born, "1958") == ["prep:in(table)"]
    assert _prep_rules(born, "yesterday") == ["prep:none"]
    overlooked = analyze(qa2d_parses["f04"])
    assert _prep_rules(overlooked, "American society") == ["prep:in(table)"]
    went = analyze(qa2d_parses["f50"])  # "Where did Sam go?"
    assert _prep_rules(went, "the store") == ["prep:to(table)"]


def test_select_preposition_dangling_beats_table(qa2d_parses):
    # "Where did the plane take off from?": the stranded token wins over
    # anything the Where rules would pick.
    a = analyze(qa2d_parses["f20"])
    assert _prep_rules(a, "Chicago") == ["prep:from(stranded)"]


def test_select_preposition_pied_piping(qa2d_parses):
    a = analyze(qa2d_parses["f18"])  # "To whom did Liz speak?"
    assert _prep_rules(a, "Mary") == ["prep:to(pied)"]
    # ... unless the answer brings its own preposition
    assert _prep_rules(a, "to Mary") == ["prep:none"]


@pytest.mark.parametrize(
    "answer, expected",
    [
        ("next week", "The ceremony is next week."),
        ("every Sunday", "The ceremony is every Sunday."),
        ("this morning", "The ceremony is this morning."),
        ("Sunday", "The ceremony is on Sunday."),
    ],
)
def test_deictic_time_answer_takes_no_table_preposition(qa2d_parses, answer, expected):
    a = analyze(qa2d_parses["f52"])  # "When is the ceremony?"
    assert transform(a, answer)[0].text == expected
    if answer != "Sunday":
        assert _prep_rules(a, answer) == ["prep:none"]


@pytest.mark.parametrize(
    "answer, expected, rules",
    [
        # a time adverb keeps the pied-piped preposition
        ("next week", "Liz stayed until next week.", ["prep:until(pied)"]),
        ("last year", "Liz stayed until last year.", ["prep:until(pied)"]),
        ("tomorrow", "Liz stayed until tomorrow.", ["prep:until(pied)"]),
        ("Sunday", "Liz stayed until Sunday.", ["prep:until(pied)"]),
        # the answer's own preposition replaces it
        ("until next week", "Liz stayed until next week.", ["prep:none"]),
        ("since Monday", "Liz stayed since Monday.", ["prep:none"]),
    ],
)
def test_pied_piped_when_preposition_before_a_time_answer(answer, expected, rules):
    a = analyze(_ud(  # Until when did Liz stay?
        "Until until ADP 2 case", "when when ADV 5 obl", "did do AUX 5 aux",
        "Liz Liz PROPN 5 nsubj", "stay stay VERB 0 root", "? ? PUNCT 5 punct",
    ))
    assert transform(a, answer)[0].text == expected
    assert _prep_rules(a, answer) == rules


@pytest.mark.parametrize(
    "prep, answer, expected, rules",
    [
        # a place adverb stands in for a pied-piped "to" alone
        ("To", "abroad", "She went abroad.", ["prep:none"]),
        ("To", "there", "She went there.", ["prep:none"]),
        ("To", "home", "She went home.", ["prep:none"]),
        ("To", "Paris", "She went to Paris.", ["prep:to(pied)"]),
        ("From", "abroad", "She went from abroad.", ["prep:from(pied)"]),
        ("From", "there", "She went from there.", ["prep:from(pied)"]),
        ("From", "home", "She went from home.", ["prep:from(pied)"]),
        ("From", "Paris", "She went from Paris.", ["prep:from(pied)"]),
        # the answer's own preposition replaces either
        ("To", "from home", "She went from home.", ["prep:none"]),
        ("From", "to Paris", "She went to Paris.", ["prep:none"]),
    ],
)
def test_pied_piped_where_preposition_before_a_place_answer(prep, answer, expected, rules):
    a = analyze(_ud(  # To/From where did she go?
        f"{prep} {prep.lower()} ADP 2 case", "where where ADV 5 obl", "did do AUX 5 aux",
        "she she PRON 5 nsubj", "go go VERB 0 root", "? ? PUNCT 5 punct",
    ))
    assert transform(a, answer)[0].text == expected
    assert _prep_rules(a, answer) == rules
    # the plan decides once that a place adverb may drop this "to"
    assert plan_question(a).link == ("pied_to_where" if prep == "To" else "pied", prep.lower())


@pytest.mark.parametrize(
    "answer, expected",
    [
        ("South Korea", "They flew to South Korea."),
        ("West Ham", "They flew to West Ham."),
        ("Paris", "They flew to Paris."),
    ],
)
def test_pied_piped_to_outside_a_where_question_keeps_it_before_a_compass_name(answer, expected):
    # Only "to where" lets a place adverb stand in for its "to": a name that
    # opens with a compass word is no adverb after "to which country".
    a = analyze(_ud(  # To which country did they fly?
        "To to ADP 3 case", "which which DET 3 det", "country country NOUN 6 obl",
        "did do AUX 6 aux", "they they PRON 6 nsubj", "fly fly VERB 0 root",
        "? ? PUNCT 6 punct",
    ))
    assert plan_question(a).link == ("pied", "to")
    assert transform(a, answer)[0].text == expected
    assert _prep_rules(a, answer) == ["prep:to(pied)"]


def test_a_dangling_question_mark_outside_the_wh_phrase_is_not_pied_piped():
    # Every "?" leaves the sentence, so a dangling one is not stranded, and
    # outside the wh phrase it was not pied-piped either: the table decides.
    a = analyze(_ud(
        "Where where ADV 4 advmod", "did do AUX 4 aux", "Sam Sam PROPN 4 nsubj",
        "go go VERB 0 root", "? ? ADP 4 case",
    ))
    assert a.dangling_preps == (5,)
    assert _prep_rules(a, "the store") == ["prep:to(table)"]


def test_select_preposition_other_types(qa2d_parses):
    a = analyze(qa2d_parses["f01"])  # subject question: the answer goes in bare
    assert _prep_rules(a, "Liz") == []
    a = analyze(qa2d_parses["f49"])  # "Who did Liz call?"
    assert _prep_rules(a, "Taylor") == ["prep:none"]


def test_subject_question_never_repeats_a_candidate():
    # "When is it?" has no subject but the wh word; "Monday" has two When
    # table options (on, in), neither of which a subject answer takes.
    sent = DepSentence(
        tokens=(
            DepToken(id=1, form="When", lemma="when", upos="ADV", xpos=None, head=0, deprel="root"),
            DepToken(id=2, form="is", lemma="be", upos="AUX", xpos=None, head=1, deprel="cop"),
            DepToken(id=3, form="it", lemma="it", upos="PRON", xpos=None, head=1, deprel="expl"),
            DepToken(id=4, form="?", lemma="?", upos="PUNCT", xpos=None, head=1, deprel="punct"),
        ),
        text="When is it?",
    )
    a = analyze(sent)
    assert a.subject_wh
    assert PrepositionTable.bundled().when_options("Monday") == ["on", "in"]
    cands = transform(a, "Monday", EngineConfig(emit_alternatives=3))
    assert [(c.text, c.rank) for c in cands] == [("Monday is it.", 1)]


# -- de-inversion ----------------------------------------------------------


def test_undo_inversion_do_support(qa2d_parses):
    a = analyze(qa2d_parses["f02"])  # "What did Liz buy at the store?"
    assert undo_inversion(a) == ["What", "Liz", "bought", "at", "the", "store"]


def test_undo_inversion_aux_moves_after_subject(qa2d_parses):
    a = analyze(qa2d_parses["f03"])  # "When was Madonna born?"
    assert undo_inversion(a) == ["When", "Madonna", "was", "born"]


def test_undo_inversion_copula(qa2d_parses):
    a = analyze(qa2d_parses["f10"])  # "What is her dog's name?"
    assert undo_inversion(a) == ["What", "her", "dog", "'s", "name", "is"]


def test_unsupported_do_support_form_is_a_transform_error():
    # "'d" has lemma "do" but names no tense: did? does? would?
    a = analyze(DepSentence(
        tokens=(
            DepToken(id=1, form="What", lemma="what", upos="PRON", xpos=None, head=4, deprel="obj"),
            DepToken(id=2, form="'d", lemma="do", upos="AUX", xpos=None, head=4, deprel="aux"),
            DepToken(id=3, form="you", lemma="you", upos="PRON", xpos=None, head=4, deprel="nsubj"),
            DepToken(id=4, form="buy", lemma="buy", upos="VERB", xpos=None, head=0, deprel="root"),
            DepToken(id=5, form="?", lemma="?", upos="PUNCT", xpos=None, head=4, deprel="punct"),
        ),
        text="What'd you buy?",
    ))
    assert a.aux == 2
    for rewrite in (lambda: undo_inversion(a), lambda: plan_question(a),
                    lambda: transform(a, "milk")):
        with pytest.raises(TransformError, match="unsupported do-support form \"'d\""):
            rewrite()


def test_undo_inversion_subject_wh_untouched(qa2d_parses):
    a = analyze(qa2d_parses["f45"])
    assert undo_inversion(a) == ["How", "many", "people", "attended", "the", "meeting"]


def _ud(*rows):
    """One sentence from "form lemma upos head deprel" rows, read as CoNLL-U."""
    return parse_conllu("".join(
        "\t".join((str(i), form, lemma, upos, "_", "_", head, deprel, "_", "_")) + "\n"
        for i, (form, lemma, upos, head, deprel) in enumerate(map(str.split, rows), 1)
    ))[0]


_RESULT = _ud(  # What will be the result?
    "What what PRON 0 root", "will will AUX 1 aux", "be be AUX 1 cop",
    "the the DET 5 det", "result result NOUN 1 nsubj", "? ? PUNCT 1 punct",
)
_MAYOR = _ud(  # Who has been the mayor?
    "Who who PRON 0 root", "has have AUX 1 aux", "been be AUX 1 cop",
    "the the DET 5 det", "mayor mayor NOUN 1 nsubj", "? ? PUNCT 1 punct",
)
_GAME = _ud(  # Where will the game be?
    "Where where ADV 0 root", "will will AUX 1 aux", "the the DET 4 det",
    "game game NOUN 1 nsubj", "be be AUX 1 cop", "? ? PUNCT 1 punct",
)
_RESULT_2 = _ud(  # What will have been the result?
    "What what PRON 0 root", "will will AUX 1 aux", "have have AUX 1 aux", "been be AUX 1 cop",
    "the the DET 6 det", "result result NOUN 1 nsubj", "? ? PUNCT 1 punct",
)
_MAYOR_2 = _ud(  # Who will have been the mayor?
    "Who who PRON 0 root", "will will AUX 1 aux", "have have AUX 1 aux", "been be AUX 1 cop",
    "the the DET 6 det", "mayor mayor NOUN 1 nsubj", "? ? PUNCT 1 punct",
)


def test_auxiliary_and_copula_both_move_behind_the_subject():
    a = analyze(_RESULT)
    assert (a.aux, a.copula) == (2, 3)
    assert transform(a, "a draw")[0].text == "The result will be a draw."
    cands = transform(analyze(_MAYOR), "Ann", EngineConfig(emit_alternatives=3))
    assert [(c.text, c.rank) for c in cands] == [
        ("The mayor has been Ann.", 1), ("Ann has been the mayor.", 2),
    ]
    assert "insert:copular_flip" in cands[1].applied_rules
    # only the auxiliary precedes the subject here; the copula stays put
    assert undo_inversion(analyze(_GAME)) == ["Where", "the", "game", "will", "be"]
    assert transform(analyze(_GAME), "in Boston")[0].text == "The game will be in Boston."
    # every auxiliary before the subject moves, and the flip fronts the same words
    assert analyze(_RESULT_2).aux == 2
    assert transform(analyze(_RESULT_2), "a draw")[0].text == "The result will have been a draw."
    cands = transform(analyze(_MAYOR_2), "Ann", EngineConfig(emit_alternatives=3))
    assert [(c.text, c.rank) for c in cands] == [
        ("The mayor will have been Ann.", 1), ("Ann will have been the mayor.", 2),
    ]


# -- transform -------------------------------------------------------------


def _first(parses, fid, answer, **config):
    cands = transform(analyze(parses[fid]), answer, EngineConfig(**config))
    return cands[0]


@pytest.mark.parametrize(
    "fid, answer, expected",
    [
        ("f01", "Liz", "Liz called Taylor."),
        ("f02", "milk", "Liz bought milk at the store."),
        ("f03", "August 16, 1958", "Madonna was born on August 16, 1958."),
        ("f05", "clever and creative", "Clever and creative can describe Jackal's characteristics."),
        ("f07", "to get to the other side", "The chicken crossed the road to get to the other side."),
        ("f09", "in 1945", "The war ended in 1945."),
        ("f10", "Mr. President", "Her dog's name is Mr. President."),
        ("f12", "halfway through the race", "Johnson crashed into the wall halfway through the race."),
        ("f13", "the store", "Sam went to the store to buy milk."),
        ("f16", "onboard a Carnival cruise ship,", "The baby was found onboard a Carnival cruise ship."),
        ("f17", "Mary", "Olga sent a letter to Mary last week."),
        ("f18", "Mary", "Liz spoke to Mary."),
        ("f26", "9 a.m.", "The store opens at 9 a.m."),
        ("f30", "UN", "Sam works at the UN."),
        ("f31", "WHO", "Tina works at WHO."),
        ("f39", "the neighbor", "The dog belongs to the neighbor."),
        ("f45", "50", "50 Attended the meeting."),
        ("f51", "a cat", "A cat is in the box."),
        ("f52", "Sunday", "The ceremony is on Sunday."),
    ],
)
def test_transform_rank1(qa2d_parses, fid, answer, expected):
    assert _first(qa2d_parses, fid, answer).text == expected


def test_transform_who_subject_with_clausal_answer(qa2d_parses):
    # A clausal answer spliced into subject position stays verbatim, however
    # awkward the result reads; precision over fluency is the contract.
    got = _first(qa2d_parses, "f46", "Tyler asks the Narrator to hit him")
    assert got.text == (
        "Tyler asks the Narrator to hit him asks who to hit them outside of the bar."
    )


@pytest.mark.parametrize(
    "rows, answer, expected",
    [
        # "be" heads its own clause and doubles as the copula
        (("Where where ADV 2 advmod", "is be AUX 0 root", "the the DET 4 det",
          "station station NOUN 2 nsubj", "? ? PUNCT 2 punct"),
         "in Paris", "The station is in Paris."),
        # in situ: nothing is inverted
        (("Sam Sam PROPN 2 nsubj", "bought buy VERB 0 root", "what what PRON 2 obj",
          "? ? PUNCT 2 punct"),
         "milk", "Sam bought milk."),
        # the answer goes after the predicate's particle
        (("What what PRON 6 obj", "did do AUX 4 aux", "Sam Sam PROPN 4 nsubj",
          "want want VERB 0 root", "to to PART 6 mark", "pick pick VERB 4 xcomp",
          "up up ADP 6 compound:prt", "? ? PUNCT 4 punct"),
         "the box", "Sam wanted to pick up the box."),
    ],
    ids=["be-root", "in-situ", "particle"],
)
def test_transform_hand_parsed(rows, answer, expected):
    assert transform(analyze(_ud(*rows)), answer)[0].text == expected


@pytest.mark.parametrize(
    "rows, answer, expected",
    [
        # "at" heads "store": the answer still goes after the verb
        (("What what PRON 4 dobj", "did do AUX 4 aux", "Liz Liz PROPN 4 nsubj",
          "buy buy VERB 0 root", "at at ADP 4 prep", "the the DET 7 det",
          "store store NOUN 5 pobj", "? ? PUNCT 4 punct"),
         "milk", "Liz bought milk at the store."),
        # the fronted "In" heads the wh phrase, and is pied-piped with it
        (("In in ADP 6 prep", "which which DET 3 det", "city city NOUN 1 pobj",
          "did do AUX 6 aux", "Liz Liz PROPN 6 nsubj", "live live VERB 0 root",
          "? ? PUNCT 6 punct"),
         "Paris", "Liz lived in Paris."),
        # a stranded "to" heading the wh word as its object
        (("Who who PRON 7 pobj", "did do AUX 4 aux", "Olga Olga PROPN 4 nsubj",
          "send send VERB 0 root", "a a DET 6 det", "letter letter NOUN 4 dobj",
          "to to ADP 4 prep", "? ? PUNCT 4 punct"),
         "Mary", "Olga sent a letter to Mary."),
        # a stranded "to" with no object
        (("Who who PRON 4 dep", "did do AUX 4 aux", "Olga Olga PROPN 4 nsubj",
          "send send VERB 0 root", "a a DET 6 det", "letter letter NOUN 4 dobj",
          "to to ADP 4 prep", "? ? PUNCT 4 punct"),
         "Mary", "Olga sent a letter to Mary."),
    ],
    ids=["prep-object", "fronted-prep", "stranded-prep-object", "stranded-prep"],
)
def test_transform_hand_parsed_clearnlp(rows, answer, expected):
    a = analyze(_ud(*rows))
    assert _UD_LABELS.keys().isdisjoint(a.question.deprel)
    assert transform(a, answer)[0].text == expected


def test_argument_answer_goes_after_the_particle_of_an_embedded_predicate():
    # What did Liz say Bo picked up? -- "What" is the object of "picked",
    # which is the ccomp of the root "say"; "up" is its compound:prt.
    sent = _ud(
        "What what PRON 6 obj", "did do AUX 4 aux", "Liz Liz PROPN 4 nsubj",
        "say say VERB 0 root", "Bo Bo PROPN 6 nsubj", "picked pick VERB 4 ccomp",
        "up up ADP 6 compound:prt", "? ? PUNCT 4 punct",
    )
    a = analyze(sent)
    assert a.wh_attachment == 6
    cand = transform(a, "the box")[0]
    # without the particle step the answer would land between "picked" and "up"
    assert cand.text == "Liz said Bo picked up the box."
    assert {"insert:after_predicate", "prep:none"} <= set(cand.applied_rules)


@pytest.mark.parametrize(
    "rows, answer, expected",
    [
        (("Where where ADV 2 advmod", "is be AUX 0 root", "the the DET 4 det",
          "station station NOUN 2 nsubj", "? ? PUNCT 2 punct"),
         "Boston", "The station is in Boston."),
        (("Who who PRON 2 attr", "is be AUX 0 root", "the the DET 4 det",
          "mayor mayor NOUN 2 nsubj", "? ? PUNCT 2 punct"),
         "Ann", "The mayor is Ann."),
    ],
    ids=["where", "who-attr"],
)
def test_be_heading_its_own_clause_is_the_copula(rows, answer, expected):
    # "is" is the root, with a subject and no cop dependent
    a = analyze(_ud(*rows))
    assert a.copula == a.root == 2
    assert transform(a, answer)[0].text == expected


def test_transform_do_with_plural_subject_keeps_bare_verb(qa2d_parses):
    got = _first(qa2d_parses, "f47", "That he has never killed anyone")
    assert got.text == "The guys learn That he has never killed anyone about Jones."
    assert "do" not in got.tokens


def test_transform_rules_trail(qa2d_parses):
    cand = _first(qa2d_parses, "f02", "milk")
    assert cand.applied_rules == (
        "qtype:What",
        "do_support:did->bought",
        "delete_wh_phrase:1-1",
        "insert:after_predicate",
        "prep:none",
        "realize",
    )
    stranded = _first(qa2d_parses, "f17", "Mary")
    assert "prep:to(stranded)" in stranded.applied_rules
    assert "insert:after_stranded_prep" in stranded.applied_rules


def test_transform_answer_cleanup(qa2d_parses):
    assert _first(qa2d_parses, "f01", " Liz, ").text == "Liz called Taylor."
    # a trailing period is trimmed, an abbreviation's dot is not
    assert _first(qa2d_parses, "f09", "1945.").text == "The war ended in 1945."
    assert _first(qa2d_parses, "f26", "9 a.m.").text == "The store opens at 9 a.m."


def test_transform_preposition_alternatives(qa2d_parses):
    cands = transform(
        analyze(qa2d_parses["f03"]), "August 16, 1958", EngineConfig(emit_alternatives=3)
    )
    assert [c.text for c in cands] == [
        "Madonna was born on August 16, 1958.",
        "Madonna was born in August 16, 1958.",
    ]
    assert [c.rank for c in cands] == [1, 2]
    assert "prep:in(table)" in cands[1].applied_rules


def test_transform_copular_flip(qa2d_parses):
    cands = transform(
        analyze(qa2d_parses["f10"]), "Mr. President", EngineConfig(emit_alternatives=2)
    )
    assert [c.text for c in cands] == [
        "Her dog's name is Mr. President.",
        "Mr. President is her dog's name.",
    ]
    assert "insert:copular_flip" in cands[1].applied_rules
    # lowercase answers do not flip
    low = transform(analyze(qa2d_parses["f19"]), "a heist", EngineConfig(emit_alternatives=3))
    assert all("copular_flip" not in " ".join(c.applied_rules) for c in low)
    # nor do When and Where questions: a time or place is not what the subject is
    config = EngineConfig(emit_alternatives=3)
    assert [c.text for c in transform(analyze(_GAME), "Boston", config)] == [
        "The game will be in Boston.",  # not "Boston will be the game."
    ]
    assert [c.text for c in transform(analyze(qa2d_parses["f52"]), "Sunday", config)] == [
        "The ceremony is on Sunday.", "The ceremony is in Sunday.",
    ]


def test_transform_no_variants_for_stranded(qa2d_parses):
    cands = transform(analyze(qa2d_parses["f20"]), "Chicago", EngineConfig(emit_alternatives=4))
    assert [c.text for c in cands] == ["The plane took off from Chicago."]


def test_transform_alternative_cap(qa2d_parses):
    for cap in (1, 2, 3):
        cands = transform(
            analyze(qa2d_parses["f50"]), "the hospital", EngineConfig(emit_alternatives=cap)
        )
        assert len(cands) == cap  # to / at / in all apply
        assert [c.rank for c in cands] == list(range(1, cap + 1))


def test_transform_copy_wh_phrase(qa2d_parses):
    plain = _first(qa2d_parses, "f45", "50")
    copied = _first(qa2d_parses, "f45", "50", copy_wh_phrase=True)
    assert plain.text == "50 Attended the meeting."
    assert normalize(copied.text) == normalize("50 people attended the meeting.")
    assert "copy_wh_nouns:people" in copied.applied_rules
    # Who/What questions are unaffected by the flag
    same = _first(qa2d_parses, "f02", "milk", copy_wh_phrase=True)
    assert same.text == "Liz bought milk at the store."


def test_transform_rejects_empty_answers(qa2d_parses):
    a = analyze(qa2d_parses["f01"])
    with pytest.raises(TransformError, match="empty"):
        transform(a, "   ")
    with pytest.raises(TransformError, match="empty"):
        transform(a, "?!,")
    with pytest.raises(TransformError, match="empty"):
        plan_question(a).realize("   ")


def test_transform_inversion_fallback():
    # Inverted auxiliary but no subject anywhere: order is kept and the
    # fallback is recorded rather than guessed around.
    sent = DepSentence(
        tokens=(
            DepToken(id=1, form="Where", lemma="where", upos="ADV", xpos=None, head=3, deprel="advmod"),
            DepToken(id=2, form="will", lemma="will", upos="AUX", xpos=None, head=3, deprel="aux"),
            DepToken(id=3, form="happen", lemma="happen", upos="VERB", xpos=None, head=0, deprel="root"),
            DepToken(id=4, form="?", lemma="?", upos="PUNCT", xpos=None, head=3, deprel="punct"),
        ),
        text="Where will happen?",
    )
    cands = transform(analyze(sent), "at dawn")
    assert cands[0].text == "Will happen at dawn."
    assert "inversion_fallback:no_subject" in cands[0].applied_rules


def test_transform_deterministic(qa2d_parses, qa2d_rows):
    cfg = EngineConfig(emit_alternatives=3)
    for row in qa2d_rows[:10]:
        a = analyze(qa2d_parses[row["id"]])
        assert transform(a, row["answer"], cfg) == transform(a, row["answer"], cfg)


# -- plan / realize ----------------------------------------------------------


def _as_rows(candidates):
    return [
        {"text": c.text, "tokens": list(c.tokens), "applied_rules": list(c.applied_rules),
         "rank": c.rank}
        for c in candidates
    ]


def test_plan_realize_matches_recorded_transform(fixtures_dir, qa2d_parses, multichoice_examples):
    # transform_golden.jsonl is what the single-pass transform (before the
    # plan/realize split) returned for each fixture answer: the 52 qa2d items
    # and every option of the 20 multichoice items, at emit_alternatives=3.
    # Lower caps gave its prefixes. candidates_copy_wh_phrase is present only
    # where copy_wh_phrase changed the output.
    with open(fixtures_dir / "transform_golden.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 52 + 20 * 4
    parses = {**qa2d_parses, **{ex.id: ex.parse for ex in multichoice_examples}}
    by_id: dict[str, list[dict]] = {}
    for rec in records:
        by_id.setdefault(rec["id"], []).append(rec)
    for qid, recs in by_id.items():
        analysis = analyze(parses[qid])
        for copy in (False, True):
            for cap in (1, 2, 3):
                config = EngineConfig(copy_wh_phrase=copy, emit_alternatives=cap)
                plan = plan_question(analysis, config)  # one plan, every answer
                for rec in recs:
                    want = rec["candidates"]
                    if copy:
                        want = rec.get("candidates_copy_wh_phrase", want)
                    got = plan.realize(rec["answer"])
                    assert _as_rows(got) == want[:cap], (qid, rec["answer"], copy, cap)
                    assert transform(analysis, rec["answer"], config) == got


def test_realize_fills_frames_its_plan_built(monkeypatch, fixtures_dir):
    # The slot and the copular flip are joined once, in plan_question; the
    # flip only when alternatives are asked for, as convert plans at 1.
    analyses = []
    for name in ("qa2d_fixtures", "gen_qa2d_long_100", "multichoice_20"):
        for sent in load_conllu(fixtures_dir / f"{name}.conllu"):
            try:
                analyses.append(analyze(sent))
            except NotWhQuestionError:
                pass
    config = EngineConfig(copy_wh_phrase=True, emit_alternatives=3)
    plans = [plan_question(analysis, config) for analysis in analyses]
    assert len(plans) == 168
    defaults = [plan_question(analysis) for analysis in analyses]

    def no_frame(words, cut):
        raise AssertionError("realize built a frame")

    monkeypatch.setattr(engine, "_frame", no_frame)
    flips = [
        candidate
        for plan in plans
        for answer in ("Zorblat", "milk")
        for candidate in plan.realize(answer)
        if "insert:copular_flip" in candidate.applied_rules
    ]
    assert len(flips) == 12
    assert all(plan.flip is None for plan in defaults)


def test_realize_fills_a_plain_slot_with_one_concatenation(monkeypatch, fixtures_dir):
    # A plain answer needs neither a token-by-token join nor a scan of the
    # sentence for its capital: the frame holds its capitalized head and its
    # tail with the period, and the answer's own first letter is the capital
    # after a head with none.
    plans = []
    for name in ("qa2d_fixtures", "gen_qa2d_long_100", "multichoice_20"):
        for sent in load_conllu(fixtures_dir / f"{name}.conllu"):
            try:
                analysis = analyze(sent)
            except NotWhQuestionError:
                continue
            for config in (EngineConfig(), EngineConfig(copy_wh_phrase=True, emit_alternatives=3)):
                plans.append(plan_question(analysis, config))

    def no_scan(*args):
        raise AssertionError("realize joined or scanned the whole sentence")

    monkeypatch.setattr(engine, "_sentence", no_scan)
    monkeypatch.setattr(engine, "_join", no_scan)
    slots = set()
    for plan in plans:
        lettered = any(map(str.isalpha, "".join(plan.slot.head_tokens)))
        for answer in ("Zorblat", "milk", "the old mill"):
            for candidate in plan.realize(answer):
                assert candidate.text.endswith(".") and candidate.text[:1].isupper()
                if "insert:subject_position" in candidate.applied_rules:
                    slots.add("subject")
                elif lettered:
                    slots.add("after a head with a letter")
    assert slots == {"subject", "after a head with a letter"}


# -- config and candidate validation ---------------------------------------


def test_engine_config_validation():
    with pytest.raises(ValueError, match="emit_alternatives"):
        EngineConfig(emit_alternatives=0)


def test_engine_config_value_semantics(tmp_path):
    assert list(EngineConfig._fields) == [
        "copy_wh_phrase", "emit_alternatives", "lexicon", "table",
    ]
    default = EngineConfig()
    assert default.lexicon is VerbLexicon.bundled()
    assert default.table is PrepositionTable.bundled()
    assert default == EngineConfig()
    assert hash(default) == hash(EngineConfig())  # the word lists are left out
    assert repr(default) == "EngineConfig(copy_wh_phrase=False, emit_alternatives=1)"
    # == compares the word lists by value
    path = tmp_path / "prep.tsv"
    path.write_text("month\tSmarch\n", encoding="utf-8")
    custom = EngineConfig(table=PrepositionTable.from_file(path))
    assert custom == EngineConfig(table=PrepositionTable.from_file(path))
    assert custom != default and hash(custom) == hash(default)
    assert EngineConfig(lexicon=VerbLexicon()) != default


def test_word_lists_override_through_config(tmp_path, qa2d_parses):
    lexicon = tmp_path / "verbs.tsv"
    lexicon.write_text("past:buy\tbuyed\n", encoding="utf-8")
    bundled = resources.files("qa2nli").joinpath("data/prepositions.tsv").read_text("utf-8")
    table = tmp_path / "prepositions.tsv"
    table.write_text(bundled.replace("article_org\tUN\n", ""), encoding="utf-8")
    config = EngineConfig(
        lexicon=VerbLexicon.from_file(lexicon), table=PrepositionTable.from_file(table)
    )
    buy = analyze(qa2d_parses["f02"])  # "What did Liz buy at the store?"
    work = analyze(qa2d_parses["f30"])  # "Where does Sam work?"
    assert transform(buy, "milk")[0].text == "Liz bought milk at the store."
    assert transform(work, "UN")[0].text == "Sam works at the UN."
    assert undo_inversion(buy, config)[2] == "buyed"
    expected = {"f02": "Liz buyed milk at the store.", "f30": "Sam works at UN."}
    answers = {"f02": "milk", "f30": "UN"}
    for fid, analysis in (("f02", buy), ("f30", work)):
        assert transform(analysis, answers[fid], config)[0].text == expected[fid]
        assert plan_question(analysis, config).realize(answers[fid])[0].text == expected[fid]
    examples = [
        QAExample(id=fid, question="", passage="p", options=(AnswerOption(answer, True),),
                  parse=qa2d_parses[fid])
        for fid, answer in answers.items()
    ]
    assert {p.id: p.hypothesis for p in build_pairs(examples, config).pairs} == {
        f"{fid}:0": text for fid, text in expected.items()
    }


def test_a_verb_reinflected_to_a_question_mark_is_dropped(tmp_path, qa2d_parses):
    # A plan's words hold no '?' but the do-support verb a lexicon gives,
    # which its frames drop as realize drops every '?' token.
    lexicon = tmp_path / "verbs.tsv"
    lexicon.write_text("past:buy\t?\n", encoding="utf-8")
    config = EngineConfig(lexicon=VerbLexicon.from_file(lexicon))
    buy = analyze(qa2d_parses["f02"])  # "What did Liz buy at the store?"
    (candidate,) = transform(buy, "milk", config)
    assert candidate.text == "Liz milk at the store."
    assert candidate.tokens == ("Liz", "milk", "at", "the", "store")
    assert "do_support:did->?" in candidate.applied_rules


def test_candidate_validation():
    with pytest.raises(ValueError, match="rank"):
        DeclarativeCandidate(text="Ok.", tokens=("Ok",), applied_rules=(), rank=0)
    with pytest.raises(ValueError, match="'\\?'"):
        DeclarativeCandidate(text="Ok?.", tokens=("Ok",), applied_rules=(), rank=1)
    with pytest.raises(ValueError, match="end with"):
        DeclarativeCandidate(text="Ok", tokens=("Ok",), applied_rules=(), rank=1)


# -- generated questions -----------------------------------------------------

_FORMS = (
    "What", "who", "Where", "when", "which", "how", "whose", "why", "whom",
    "do", "does", "did", "is", "was", "be", "been", "are", "will", "has",
    "?", "?", "Sam", "the", "store", "in", "to", "up", "'d",
)
_LEMMAS = {"do": "do", "does": "do", "did": "do", "is": "be", "was": "be", "be": "be",
           "been": "be", "are": "be", "'d": "do"}
# relations and tags that analysis and engine read, some with subtypes
_DEPRELS = (
    "det", "amod", "advmod", "nummod", "compound", "nmod:poss", "poss", "nsubj",
    "nsubj:pass", "csubj", "nsubjpass", "cop", "aux", "aux:pass", "auxpass", "punct",
    "advcl", "ccomp", "xcomp", "parataxis", "obj", "iobj", "dobj", "obl", "attr", "mark",
    "dep", "case", "prep", "prt", "compound:prt", "acomp", "oprd", "expl",
)
_UPOS = ("VERB", "AUX", "PUNCT", "ADP", "PART", "ADV", "NOUN", "PROPN", "PRON", "DET")


@st.composite
def questions(draw, max_size=9, forms=_FORMS, deprels=_DEPRELS):
    """A valid tree, heads drawn like test_conllu's trees, with question-like words."""
    n = draw(st.integers(1, max_size))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    tokens = []
    for tid in range(1, n + 1):
        form = draw(st.sampled_from(forms))
        tokens.append(DepToken(
            id=tid, form=form, lemma=_LEMMAS.get(form, form.lower()),
            upos=draw(st.sampled_from(_UPOS)), xpos=None, head=heads[tid],
            deprel="root" if heads[tid] == 0 else draw(st.sampled_from(deprels)),
        ))
    return DepSentence(tokens=tuple(tokens))


def _what_did_liz_buy(root_lemma):
    """ "What did Liz buy?" with the given lemma on its root."""
    rows = [("What", "what", 4, "obj"), ("did", "do", 4, "aux"), ("Liz", "Liz", 4, "nsubj"),
            ("buy", root_lemma, 0, "root"), ("?", "?", 4, "punct")]
    return DepSentence(tuple(
        DepToken(tid, form, lemma, "X", None, head, deprel)
        for tid, (form, lemma, head, deprel) in enumerate(rows, 1)
    ))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(questions(), st.sampled_from(["Paris", "in 1945", "Monday", "UN", "a draw", "?"]))
@example(_what_did_liz_buy(" "), "milk")  # a blank verb under do-support
def test_rewrite_fails_only_with_its_own_errors(sent, answer):
    try:
        a = analyze(sent)
    except (NotWhQuestionError, AnalysisError):
        return
    for config in (EngineConfig(), EngineConfig(copy_wh_phrase=True, emit_alternatives=3)):
        try:
            plan = plan_question(a, config)
            cands = plan.realize(answer)
        except TransformError:
            continue
        assert 1 <= len(cands) <= config.emit_alternatives
        assert [c.rank for c in cands] == list(range(1, len(cands) + 1))
        assert all(c.text.endswith(".") and "?" not in c.text for c in cands)
        assert plan.realize(answer) == cands
        _assert_answer_spliced(a, plan, cands[0], answer)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(questions(deprels=_DEPRELS + ("pobj", "pcomp", "agent")))
def test_as_ud_reads_any_tree_in_ud_labels(sent):
    ud = _as_ud(sent)
    if _UD_LABELS.keys().isdisjoint(sent.deprel):
        assert ud is sent
        return
    # a DepSentence is a valid tree, or its construction raised
    assert isinstance(ud, DepSentence)
    assert (ud.form, ud.lemma, ud.upos, ud.xpos) == (sent.form, sent.lemma, sent.upos, sent.xpos)
    assert (ud.text, ud.sent_id) == (sent.text, sent.sent_id)
    assert _UD_LABELS.keys().isdisjoint(ud.deprel)
    assert _as_ud(ud) is ud


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(questions(deprels=_DEPRELS + ("pobj", "pcomp", "agent")))
@example(_ud(  # Where will Sam have gone?   (two auxiliaries, which trees seldom draw)
    "Where where ADV 5 advmod", "will will AUX 5 aux", "Sam Sam PROPN 5 nsubj",
    "have have AUX 5 aux", "gone go VERB 0 root", "? ? PUNCT 5 punct",
))
def test_analyze_equals_the_oracle_on_generated_trees(sent):
    try:
        a = analyze(sent)
    except (NotWhQuestionError, AnalysisError):
        return
    want = oracles.oracle_analyze(a.question, a.wh_head)
    got = {name: getattr(a, name) for name in want}
    assert {**got, "qtype": a.qtype.value} == want


def _assert_answer_spliced(analysis, plan, cand, answer):
    """cand is the plan's slot filled with the preposition its rules name,
    the answer and the plan's residual nouns, and the slot's words keep the
    question's order: they interleave its words outside the wh phrase that
    are not in the verb group and those that are, each in question order.
    '?' tokens are dropped, and under do-support the auxiliary goes and the
    root reads as its do_support rule's form."""

    def spoken(words):
        return [w for w in words if w != "?"]

    prep = spoken(
        rule.split(":", 1)[1].split("(")[0]
        for rule in cand.applied_rules
        if rule.startswith("prep:") and rule.endswith(("(pied)", "(table)"))
    )
    run = insert_article(engine._clean_answer(answer), plan.config.table.article_orgs).split()
    head, tail = list(plan.slot.head_tokens), list(plan.slot.tail_tokens)
    filled = head + prep + spoken(run) + spoken(plan.residual) + tail
    assert list(cand.tokens) == filled, (cand.tokens, filled)

    start, end = analysis.wh_phrase
    form = list(analysis.question.form)
    kept = [tid for tid, word in enumerate(form, 1) if not start <= tid <= end and word != "?"]
    support = [rule for rule in plan.rules if rule.startswith("do_support:")]
    if support:
        kept = [tid for tid in kept if tid != analysis.verbs[0]]
        form[analysis.root - 1] = support[0].partition("->")[2]
    others = [form[tid - 1] for tid in kept if tid not in analysis.verbs]
    verbs = [form[tid - 1] for tid in kept if tid in analysis.verbs]
    assert _interleaves(head + tail, others, verbs), (head + tail, others, verbs)


def _interleaves(words, first, second):
    """words is first and second merged, each kept in its order."""
    if len(words) != len(first) + len(second):
        return False
    taken = {0}  # how many of first the words so far may hold
    for k, word in enumerate(words):
        taken = {i + 1 for i in taken if i < len(first) and first[i] == word} | {
            i for i in taken if k - i < len(second) and second[k - i] == word
        }
    return bool(taken)


def test_fixture_rewrites_splice_the_answer(qa2d_parses):
    # The fixtures hold the Which/How questions whose nouns copy_wh_phrase
    # keeps as the plan's residual, which the generated trees seldom do.
    answers = ("Paris", "in 1945", "Monday", "UN", "a draw", "August 16, 1958")
    for config in (EngineConfig(), EngineConfig(copy_wh_phrase=True, emit_alternatives=3)):
        for sent in qa2d_parses.values():
            analysis = analyze(sent)
            plan = plan_question(analysis, config)
            for answer in answers:
                _assert_answer_spliced(analysis, plan, plan.realize(answer)[0], answer)


# -- pre-joined realization against the token-by-token oracle -----------------

# Answers that put each kind of token at a seam of the answer slot: closing
# punctuation and clitics first or last, "(" last, a standalone "?" (dropped)
# and a "?" inside a token (a TransformError), a digit first, a lowercase
# first letter, a final ".", an answer that cleans down to a lone "?", and
# an apostrophe inside a word and a word with "(" after it, which keep an
# answer that starts with a letter off the plain-slot path of _Frame.fill.
_SEAM_ANSWERS = (
    ", Paris", "Paris ,", ") Paris", "Paris )", "'s dog", "the dog 's", "n't go", "go n't",
    "the (", "( 1945", "Paris ? now", "Par?is", "1945", "50 people", "ann", "UN", "Monday",
    "in 1945", "August 16, 1958", "9 a.m.", "the city .", "? .", "Bo's", "Paris (",
)
# Words that put closing punctuation, clitics, brackets, digits, a "?" inside
# a word, an apostrophe or bracket inside a word, and a space next to the
# slot in generated trees.
_SEAM_FORMS = (
    ",", ")", "(", "'s", "n't", ".", "1945", "ann", "wh?y", "it's", "x(", "[", "{", "a b",
)
_SEAM_CONFIGS = [
    EngineConfig(emit_alternatives=cap, copy_wh_phrase=copy)
    for cap in (1, 3)
    for copy in (False, True)
]
_SEAM_TREES = (
    _ud(  # 1999 , who won the race ?   (no letter before the slot)
        "1999 1999 NUM 4 obl", ", , PUNCT 4 punct", "who who PRON 4 nsubj", "won win VERB 0 root",
        "the the DET 6 det", "race race NOUN 4 obj", "? ? PUNCT 4 punct",
    ),
    _ud(  # What did Liz buy , then ?   (the tail opens with ",")
        "What what PRON 4 obj", "did do AUX 4 aux", "Liz Liz PROPN 4 nsubj", "buy buy VERB 0 root",
        ", , PUNCT 4 punct", "then then ADV 4 advmod", "? ? PUNCT 4 punct",
    ),
    _ud(  # Who 's here ?   (the tail opens with a clitic)
        "Who who PRON 3 nsubj", "'s be AUX 3 cop", "here here ADV 0 root", "? ? PUNCT 3 punct",
    ),
    _ud("Who who PRON 0 root", "? ? PUNCT 1 punct"),  # nothing but the answer
)


def _outcome(realize_answer):
    """realize_answer(), or the message of the TransformError it raised."""
    try:
        return realize_answer()
    except TransformError as exc:
        return str(exc)


def _assert_seams_match_oracle(sent):
    """Every seam answer realizes as the token-by-token oracle does, under
    each config; returns what the inputs exercised."""
    seen = set()
    try:
        analysis = analyze(sent)
    except (NotWhQuestionError, AnalysisError):
        return seen
    for config in _SEAM_CONFIGS:
        try:
            plan = plan_question(analysis, config)
        except TransformError:
            continue
        head, tail = "".join(plan.slot.head_tokens), plan.slot.tail_tokens
        if not head:
            seen.add("empty head")
        else:
            seen.add("lettered head" if any(map(str.isalpha, head)) else "unlettered head")
        if not tail:
            seen.add("empty tail")
        elif tail[0] in (",", ".", ")", "n't") or tail[0].startswith("'"):
            seen.add("tail opens with a clitic")
        else:
            seen.add("tail opens with a word")
        seen.add("residual" if plan.residual else "no residual")
        for answer in _SEAM_ANSWERS:
            got = _outcome(lambda: [tuple(c) for c in plan.realize(answer)])
            assert got == _outcome(lambda: oracles.oracle_plan_realize(plan, answer)), (
                plan.slot, answer, config
            )
            seen.add(got if isinstance(got, str) else f"{len(got)} candidates")
    return seen


def test_fixture_rewrites_realize_as_the_token_by_token_oracle(qa2d_parses, multichoice_examples):
    sentences = [*qa2d_parses.values(), *(ex.parse for ex in multichoice_examples), *_SEAM_TREES]
    seen = set().union(*map(_assert_seams_match_oracle, sentences))
    # the inputs reach every seam case, every error and every candidate count
    assert seen >= {
        "empty head", "lettered head", "unlettered head", "empty tail",
        "tail opens with a clitic", "tail opens with a word", "residual",
        "nothing to realize", "candidate text may not contain '?'",
        "1 candidates", "2 candidates", "3 candidates",
    }, seen


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(questions(forms=_FORMS + _SEAM_FORMS))
def test_generated_rewrites_realize_as_the_token_by_token_oracle(sent):
    _assert_seams_match_oracle(sent)
