"""Question typing and structural analysis over the fixture parses."""


import pytest

import oracles
from clearnlp import relabel
from qa2nli.analysis import QuestionType, _as_ud, analyze, classify_question
from qa2nli.conllu import DepSentence, DepToken, load_conllu, parse_conllu, to_conllu
from qa2nli.errors import AnalysisError, NotWhQuestionError, PipelineError


@pytest.mark.parametrize(
    "fid, qtype",
    [
        ("f01", QuestionType.WHO),
        ("f02", QuestionType.WHAT),
        ("f03", QuestionType.WHEN),
        ("f04", QuestionType.WHERE),
        ("f05", QuestionType.WHICH),
        ("f06", QuestionType.WHOSE),
        ("f07", QuestionType.WHY),
        ("f08", QuestionType.HOW),
        ("f18", QuestionType.WHO),  # "To whom ..." folds into Who
    ],
)
def test_classify(qa2d_parses, fid, qtype):
    assert classify_question(qa2d_parses[fid]) is qtype


def test_qtype_str():
    assert str(QuestionType.WHERE) == "Where"
    assert f"{QuestionType.HOW}" == "How"


def _tok(i, form, lemma, upos, head, deprel):
    return DepToken(id=i, form=form, lemma=lemma, upos=upos, xpos=None, head=head, deprel=deprel)


def test_not_a_wh_question():
    sent = DepSentence(
        tokens=(
            _tok(1, "Liz", "Liz", "PROPN", 2, "nsubj"),
            _tok(2, "won", "win", "VERB", 0, "root"),
        ),
        text="Liz won.",
    )
    with pytest.raises(NotWhQuestionError, match="no wh word"):
        classify_question(sent)
    with pytest.raises(NotWhQuestionError):
        analyze(sent)


def test_degenerate_parse():
    sent = DepSentence(
        tokens=(
            _tok(1, "What", "what", "PRON", 2, "dep"),
            _tok(2, "?", "?", "PUNCT", 0, "root"),
        ),
        text="What?",
    )
    with pytest.raises(AnalysisError, match="degenerate"):
        analyze(sent)


# Structural facts per fixture: span, aux, copula, subject, attachment,
# dangling prepositions, and whether the wh phrase is the subject.
@pytest.mark.parametrize(
    "fid, span, aux, cop, subj, attach, dangling, subj_wh",
    [
        ("f01", (1, 1), None, None, 1, 2, (), True),
        ("f02", (1, 1), 2, None, 3, 4, (), False),
        ("f03", (1, 1), 2, None, 3, 4, (), False),
        ("f05", (1, 2), 3, None, 2, 4, (), True),
        ("f10", (1, 1), None, 2, 6, 1, (), False),
        ("f17", (1, 2), 3, None, 4, 5, (8,), False),
        ("f18", (1, 2), 3, None, 4, 5, (1,), False),
        ("f19", (1, 1), None, 2, 4, 1, (5,), False),
        ("f20", (1, 1), 2, None, 4, 5, (6, 7), False),
        ("f39", (1, 1), 2, None, 4, 5, (6,), False),
        ("f45", (1, 3), None, None, 3, 4, (), True),
    ],
)
def test_analysis_fields(qa2d_parses, fid, span, aux, cop, subj, attach, dangling, subj_wh):
    a = analyze(qa2d_parses[fid])
    assert a.wh_phrase == span
    assert a.aux == aux
    assert a.copula == cop
    assert a.subject == subj
    assert a.wh_attachment == attach
    assert a.dangling_preps == dangling
    assert a.subject_wh is subj_wh


def test_copular_existential_subject_wh(qa2d_parses):
    # "What is in the box?" has no other subject; the wh phrase is it.
    a = analyze(qa2d_parses["f51"])
    assert a.subject is None
    assert a.copula is not None
    assert a.subject_wh is True


def _sent(*rows):
    """A sentence from "form lemma upos head deprel" rows."""
    return DepSentence(tuple(
        _tok(i, form, lemma, upos, int(head), deprel)
        for i, (form, lemma, upos, head, deprel) in enumerate(map(str.split, rows), 1)
    ))


@pytest.mark.parametrize(
    "rows, verbs",
    [
        (("Who who PRON 5 nsubj", "has have AUX 5 aux", "been be AUX 5 cop",
          "the the DET 5 det", "mayor mayor NOUN 0 root", "? ? PUNCT 5 punct"),
         (2, 3)),
        (("What what PRON 0 root", "will will AUX 1 aux", "have have AUX 1 aux",
          "been be AUX 1 cop", "the the DET 6 det", "result result NOUN 1 nsubj",
          "? ? PUNCT 1 punct"),
         (2, 3, 4)),
        (("What what PRON 4 obj", "did do AUX 4 aux", "Liz Liz PROPN 4 nsubj",
          "buy buy VERB 0 root", "? ? PUNCT 4 punct"),
         (2,)),
        (("Who who PRON 2 nsubj", "called call VERB 0 root", "Taylor Taylor PROPN 2 obj",
          "? ? PUNCT 2 punct"),
         ()),
        # ClearNLP labels: "is" heads its clause and is the copula
        (("Who who PRON 2 attr", "is be AUX 0 root", "the the DET 4 det",
          "mayor mayor NOUN 2 nsubj", "? ? PUNCT 2 punct"),
         (2,)),
    ],
    ids=["has-been", "will-have-been", "did", "subject-who", "clearnlp-be-root"],
)
def test_verb_group(rows, verbs):
    # every auxiliary of the main predicate and its copula, in surface order
    assert analyze(_sent(*rows)).verbs == verbs


def test_all_fixtures_analyze(qa2d_parses):
    for fid, sent in qa2d_parses.items():
        a = analyze(sent)
        assert a.question is sent
        start, end = a.wh_phrase
        assert start <= a.wh_token <= end, fid
        assert 1 <= a.root <= len(sent), fid


def _fields(sentence):
    """The analysis of a sentence without its question, or the error it raises."""
    try:
        a = analyze(sentence)
    except PipelineError as exc:
        return repr(exc)
    return {name: getattr(a, name) for name in a._fields if name != "question"}


@pytest.mark.parametrize("name", ["gen_convert_mc_200", "gen_qa2d_long_100", "qa2d_fixtures"])
def test_clearnlp_copy_reads_as_its_ud_original(fixtures_dir, name):
    ud = load_conllu(fixtures_dir / f"{name}.conllu")
    copies = load_conllu(fixtures_dir / f"{name}_clearnlp.conllu")
    assert len(copies) == len(ud)
    for original, copy in zip(ud, copies):
        assert _fields(copy) == _fields(original), original.sent_id
        converted = _as_ud(copy)
        if original.sent_id == "f51":
            # "What is in the box?": the object of "in" hangs off the
            # pronoun "What", so it reads back as nmod where the UD file has obl
            assert converted.deprel[4] == "nmod" and original.deprel[4] == "obl"
            assert converted.head == original.head
        else:
            assert converted == original, original.sent_id


# Hand-parsed UD questions: "form lemma upos head deprel" rows, and the form
# of the wh phrase's head.
WH_HEADS = {
    "which-city": (("Which which DET 2 det", "city city NOUN 5 obj", "did do AUX 5 aux",
                    "Liz Liz PROPN 5 nsubj", "visit visit VERB 0 root", "? ? PUNCT 5 punct"),
                   "city"),
    "how-many-books": (("How how ADV 2 advmod", "many many ADJ 3 amod", "books book NOUN 6 obj",
                        "did do AUX 6 aux", "Liz Liz PROPN 6 nsubj", "buy buy VERB 0 root",
                        "? ? PUNCT 6 punct"),
                       "books"),
    "whose-car": (("Whose whose PRON 2 nmod:poss", "car car NOUN 3 nsubj",
                   "broke break VERB 0 root", "? ? PUNCT 3 punct"),
                  "car"),
    "in-which-city": (("In in ADP 3 case", "which which DET 3 det", "city city NOUN 6 obl",
                       "did do AUX 6 aux", "Liz Liz PROPN 6 nsubj", "live live VERB 0 root",
                       "? ? PUNCT 6 punct"),
                      "city"),
    "what-object": (("What what PRON 4 obj", "did do AUX 4 aux", "Liz Liz PROPN 4 nsubj",
                     "buy buy VERB 0 root", "? ? PUNCT 4 punct"),
                    "What"),
    "what-copular": (("What what PRON 0 root", "is be AUX 1 cop", "the the DET 4 det",
                      "capital capital NOUN 1 nsubj", "? ? PUNCT 1 punct"),
                     "What"),
}


@pytest.mark.parametrize("name", list(WH_HEADS))
def test_wh_head_in_both_schemes(name):
    rows, head = WH_HEADS[name]
    ud = _sent(*rows)
    (clearnlp,) = parse_conllu(relabel(to_conllu(ud)))
    for sentence in (ud, clearnlp):
        a = analyze(sentence)
        assert a.question.form[a.wh_head - 1] == head
        start, end = a.wh_phrase
        assert start <= a.wh_head <= end
        # only in "What is the capital?" does the wh phrase head the clause
        assert (a.wh_head == a.root) is (name == "what-copular")


def test_wh_head_is_the_one_token_whose_head_leaves_the_wh_phrase(fixtures_dir):
    analyzed = 0
    for path in sorted(fixtures_dir.glob("*.conllu")):
        for sentence in load_conllu(path):
            try:
                a = analyze(sentence)
            except PipelineError:
                continue
            head, external = oracles.oracle_span_head(a.question.tokens, a.wh_phrase)
            assert external == [a.wh_head], (path.name, sentence.sent_id)
            assert head == a.wh_head
            analyzed += 1
    assert analyzed >= 700
