"""QA loading, parse attachment, and NLI pair construction."""

import json

import pytest

from qa2nli import nli
from qa2nli.conllu import DepSentence, DepToken
from qa2nli.engine import plan_question
from qa2nli.errors import DatasetError
from qa2nli.nli import (
    AnswerOption,
    Label,
    Provenance,
    QAExample,
    attach_parses,
    build_pairs,
    load_qa_jsonl,
    write_nli_jsonl,
)


def _write(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return path


# -- loading ---------------------------------------------------------------


def test_load_span(tmp_path):
    path = _write(
        tmp_path,
        [
            {"id": "a", "question": "Who won?", "passage": "Liz won.", "answer": "Liz"},
            {"id": "b", "question": "Who lost?", "passage": "Tom lost.", "answer": "Tom", "extra": 1},
        ],
    )
    examples = load_qa_jsonl(path, "span")
    assert [e.id for e in examples] == ["a", "b"]
    assert examples[0].options == (AnswerOption("Liz", correct=True),)
    assert examples[0].answerable is True
    assert examples[0].parse is None


def test_load_multichoice(tmp_path):
    path = _write(
        tmp_path,
        [
            {
                "id": "m",
                "question": "Who won?",
                "passage": "Liz won.",
                "options": ["Tom", "Liz"],
                "correct": 1,
            }
        ],
    )
    (ex,) = load_qa_jsonl(path, "multichoice")
    assert ex.correct_options == (AnswerOption("Liz", correct=True),)
    assert ex.incorrect_options == (AnswerOption("Tom", correct=False),)


def test_load_unanswerable(tmp_path):
    path = _write(
        tmp_path,
        [
            {"id": "u1", "question": "Who won?", "passage": "p", "answerable": True, "answer": "Liz"},
            {"id": "u2", "question": "Who flew?", "passage": "p", "answerable": False, "plausible_answer": "Tom"},
            {"id": "u3", "question": "Who sang?", "passage": "p", "answerable": False},
        ],
    )
    examples = load_qa_jsonl(path, "unanswerable")
    assert examples[0].answerable and examples[0].options[0].correct
    assert not examples[1].answerable
    assert examples[1].options == (AnswerOption("Tom", correct=False),)
    assert examples[2].options == ()


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(
        '\n{"id": "a", "question": "Who?", "passage": "p", "answer": "x"}\n\n',
        encoding="utf-8",
    )
    assert len(load_qa_jsonl(path, "span")) == 1


def test_load_unknown_schema(tmp_path):
    path = _write(tmp_path, [])
    with pytest.raises(ValueError, match="schema must be one of"):
        load_qa_jsonl(path, "freeform")


@pytest.mark.parametrize(
    "schema, lines, message",
    [
        ("span", ['{"id": "a"'], "line 1.*invalid JSON"),
        ("span", ["[1, 2]"], "line 1.*JSON object"),
        ("span", ['{"question": "Who?", "passage": "p", "answer": "x"}'], "missing key 'id'"),
        ("span", ['{"id": 3, "question": "Who?", "passage": "p", "answer": "x"}'], "'id' must be str"),
        ("span", ['{"id": "a", "question": "Who?", "passage": "p"}'], "missing key 'answer'"),
        (
            "multichoice",
            ['{"id": "a", "question": "Who?", "passage": "p", "options": [], "correct": 0}'],
            "non-empty list of strings",
        ),
        (
            "multichoice",
            ['{"id": "a", "question": "Who?", "passage": "p", "options": ["x", 2], "correct": 0}'],
            "non-empty list of strings",
        ),
        (
            "multichoice",
            ['{"id": "a", "question": "Who?", "passage": "p", "options": ["x"], "correct": 1}'],
            "out of range",
        ),
        (
            "multichoice",
            ['{"id": "a", "question": "Who?", "passage": "p", "options": ["x"], "correct": true}'],
            "'correct' must be int",
        ),
        (
            "unanswerable",
            ['{"id": "a", "question": "Who?", "passage": "p", "answerable": 1, "answer": "x"}'],
            "'answerable' must be bool",
        ),
        (
            "unanswerable",
            ['{"id": "a", "question": "Who?", "passage": "p", "answerable": false, "plausible_answer": 4}'],
            "'plausible_answer' must be a string",
        ),
    ],
)
def test_load_schema_violations(tmp_path, schema, lines, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=message):
        load_qa_jsonl(path, schema)


def test_load_duplicate_id(tmp_path):
    path = _write(
        tmp_path,
        [
            {"id": "a", "question": "Who?", "passage": "p", "answer": "x"},
            {"id": "a", "question": "Who?", "passage": "p", "answer": "y"},
        ],
    )
    with pytest.raises(DatasetError, match="line 2.*duplicate id 'a'"):
        load_qa_jsonl(path, "span")


# -- parse attachment --------------------------------------------------------


def _who_parse(sid, verb, obj):
    return DepSentence(
        tokens=(
            DepToken(id=1, form="Who", lemma="who", upos="PRON", xpos=None, head=2, deprel="nsubj"),
            DepToken(id=2, form=verb, lemma=verb, upos="VERB", xpos=None, head=0, deprel="root"),
            DepToken(id=3, form=obj, lemma=obj, upos="PROPN", xpos=None, head=2, deprel="obj"),
            DepToken(id=4, form="?", lemma="?", upos="PUNCT", xpos=None, head=2, deprel="punct"),
        ),
        text=f"Who {verb} {obj}?",
        sent_id=sid,
    )


def test_attach_parses():
    examples = [
        QAExample(id="a", question="Who called Taylor?", passage="p",
                  options=(AnswerOption("Liz", True),)),
        QAExample(id="b", question="Who helped Ann?", passage="p",
                  options=(AnswerOption("Tom", True),)),
    ]
    attached = attach_parses(examples, {"a": _who_parse("a", "called", "Taylor")})
    assert attached[0].parse is not None and attached[0].parse.sent_id == "a"
    assert attached[1].parse is None
    assert examples[0].parse is None  # originals untouched


# -- pair building -----------------------------------------------------------


def test_build_pairs_multichoice(multichoice_examples):
    result = build_pairs(multichoice_examples, negatives="all")
    assert len(result.pairs) == 80
    assert not result.skips
    by_label = {}
    for pair in result.pairs:
        by_label[pair.label] = by_label.get(pair.label, 0) + 1
        # label and provenance line up by construction
        if pair.label is Label.ENTAILED:
            assert pair.provenance is Provenance.CORRECT_ANSWER
        else:
            assert pair.provenance is Provenance.INCORRECT_OPTION
    assert by_label == {Label.ENTAILED: 20, Label.NOT_ENTAILED: 60}


def test_build_pairs_premise_is_the_passage(multichoice_examples):
    result = build_pairs(multichoice_examples[:3], negatives="all")
    passages = {ex.id: ex.passage for ex in multichoice_examples[:3]}
    for pair in result.pairs:
        assert pair.premise == passages[pair.id.split(":")[0]]


def test_build_pairs_ids_entailed_first(multichoice_examples):
    result = build_pairs(multichoice_examples, negatives="all")
    for ex in multichoice_examples:
        ids = [p.id for p in result.pairs if p.id.startswith(ex.id + ":")]
        assert ids == [f"{ex.id}:{i}" for i in range(4)]
        first = next(p for p in result.pairs if p.id == f"{ex.id}:0")
        assert first.label is Label.ENTAILED


def test_build_pairs_one_random(multichoice_examples):
    result = build_pairs(multichoice_examples, negatives="one-random", seed=7)
    assert len(result.pairs) == 40
    again = build_pairs(multichoice_examples, negatives="one-random", seed=7)
    assert result.pairs == again.pairs
    other_seed = build_pairs(multichoice_examples, negatives="one-random", seed=8)
    assert result.pairs != other_seed.pairs


def test_one_random_stable_under_reordering(multichoice_examples):
    full = build_pairs(multichoice_examples, negatives="one-random", seed=7)
    flipped = build_pairs(list(reversed(multichoice_examples)), negatives="one-random", seed=7)
    assert sorted(p.id for p in full.pairs) == sorted(p.id for p in flipped.pairs)
    assert {p.id: p.hypothesis for p in full.pairs} == {p.id: p.hypothesis for p in flipped.pairs}
    # subsetting does not change the choice either
    one = build_pairs([multichoice_examples[4]], negatives="one-random", seed=7)
    expected = [p for p in full.pairs if p.id.startswith(multichoice_examples[4].id + ":")]
    assert list(one.pairs) == expected


def test_build_pairs_policy_validation(multichoice_examples):
    with pytest.raises(ValueError, match="negatives must be one of"):
        build_pairs(multichoice_examples, negatives="bogus")


def test_build_pairs_skip_stages():
    no_parse = QAExample(id="x1", question="Who called Taylor?", passage="p",
                         options=(AnswerOption("Liz", True),))
    not_wh = QAExample(
        id="x2", question="Liz called Taylor.", passage="p",
        options=(AnswerOption("Liz", True),),
        parse=DepSentence(
            tokens=(
                DepToken(id=1, form="Liz", lemma="Liz", upos="PROPN", xpos=None, head=2, deprel="nsubj"),
                DepToken(id=2, form="called", lemma="call", upos="VERB", xpos=None, head=0, deprel="root"),
                DepToken(id=3, form="Taylor", lemma="Taylor", upos="PROPN", xpos=None, head=2, deprel="obj"),
            ),
            text="Liz called Taylor.", sent_id="x2",
        ),
    )
    result = build_pairs([no_parse, not_wh])
    assert not result.pairs
    stages = {s.example_id: s.stage for s in result.skips}
    assert stages == {"x1": "parse", "x2": "analysis"}
    assert result.skips[0].to_dict() == {
        "id": "x1", "stage": "parse", "reason": "no dependency parse for this id",
    }


def test_build_pairs_transform_skip_keeps_others():
    ex = QAExample(
        id="x3", question="Who called Taylor?", passage="p",
        options=(
            AnswerOption("Liz", correct=True),
            AnswerOption("?!", correct=False),  # nothing left after cleanup
            AnswerOption("   ", correct=False),  # blank
            AnswerOption("Tom", correct=False),
        ),
        parse=_who_parse("x3", "called", "Taylor"),
    )
    result = build_pairs([ex], negatives="all")
    assert [p.hypothesis for p in result.pairs] == ["Liz called Taylor.", "Tom called Taylor."]
    assert [p.id for p in result.pairs] == ["x3:0", "x3:1"]  # ids stay dense
    assert [s.to_dict() for s in result.skips] == [
        {"id": "x3", "stage": "transform", "reason": "answer is empty after trimming",
         "option": option}
        for option in ("?!", "   ")
    ]


def test_build_pairs_plans_each_question_once(monkeypatch, multichoice_examples):
    planned = []

    def counting_plan(analysis, *args, **kwargs):
        planned.append(analysis.question.sent_id)
        return plan_question(analysis, *args, **kwargs)

    monkeypatch.setattr(nli, "plan_question", counting_plan)
    no_parse = QAExample(id="x1", question="Who called Taylor?", passage="p",
                         options=(AnswerOption("Liz", True),))
    result = build_pairs([*multichoice_examples, no_parse], negatives="all")
    assert len(result.pairs) == 80
    assert planned == [ex.id for ex in multichoice_examples]


def test_build_pairs_unanswerable():
    parse = _who_parse("u", "called", "Taylor")
    with_plausible = QAExample(
        id="u", question="Who called Taylor?", passage="p",
        options=(AnswerOption("Liz", correct=False),), answerable=False, parse=parse,
    )
    result = build_pairs([with_plausible])
    assert not result.skips
    (pair,) = result.pairs
    assert pair.label is Label.NOT_ENTAILED
    assert pair.provenance is Provenance.UNANSWERABLE
    assert pair.hypothesis == "Liz called Taylor."

    bare = QAExample(id="u2", question="Who called Taylor?", passage="p",
                     options=(), answerable=False, parse=parse)
    result = build_pairs([bare])
    assert not result.pairs
    assert result.skips[0].stage == "options"


def test_build_pairs_no_correct_option():
    ex = QAExample(
        id="n", question="Who called Taylor?", passage="p",
        options=(AnswerOption("Liz", correct=False),),
        parse=_who_parse("n", "called", "Taylor"),
    )
    result = build_pairs([ex])
    assert not result.pairs
    assert result.skips[0].to_dict()["reason"] == "no correct answer"


# -- serialization -------------------------------------------------------


def test_write_nli_jsonl(tmp_path, multichoice_examples):
    pairs = build_pairs(multichoice_examples[:2], negatives="all").pairs
    out = tmp_path / "pairs.jsonl"
    assert write_nli_jsonl(pairs, out) == 8
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert list(first) == ["id", "premise", "hypothesis", "label", "provenance"]
    assert first == pairs[0].to_dict()
    assert first["label"] in ("entailed", "not_entailed")

    again = tmp_path / "pairs2.jsonl"
    write_nli_jsonl(pairs, again)
    assert out.read_bytes() == again.read_bytes()


def test_write_nli_jsonl_keeps_unicode(tmp_path):
    pair_source = QAExample(
        id="u", question="Who called Taylor?", passage="Zoë called Taylor.",
        options=(AnswerOption("Zoë", True),), parse=_who_parse("u", "called", "Taylor"),
    )
    (pair,) = build_pairs([pair_source]).pairs
    out = tmp_path / "u.jsonl"
    write_nli_jsonl([pair], out)
    assert "Zoë" in out.read_text(encoding="utf-8")


def test_label_and_provenance_render_as_plain_strings():
    assert str(Label.ENTAILED) == "entailed"
    assert str(Provenance.INCORRECT_OPTION) == "incorrect_option"
    assert f"{Label.NOT_ENTAILED}" == "not_entailed"
