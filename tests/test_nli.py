"""QA loading, parse attachment, and NLI pair construction."""

import io
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qa2nli import nli
from qa2nli.conllu import DepSentence, DepToken, index_by_sent_id, load_conllu
from qa2nli.engine import EngineConfig, QuestionPlan, plan_question
from qa2nli.errors import DatasetError
from qa2nli.nli import (
    AnswerOption,
    Label,
    NliPair,
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
    # analyzed, then skipped at stage "options": there is no answer to plan for
    no_correct = QAExample(id="x2", question="Who called Taylor?", passage="p",
                           options=(AnswerOption("Liz", False),),
                           parse=_who_parse("x2", "called", "Taylor"))
    result = build_pairs([*multichoice_examples, no_parse, no_correct], negatives="all")
    assert len(result.pairs) == 80
    assert [s.stage for s in result.skips] == ["parse", "options"]
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


# Strings JSON must escape or must pass through: quotes, backslashes, control
# characters, non-ASCII and the two Unicode line separators.
_AWKWARD = ('Zoë said "hi" \\ left.', "tab\there\x00\x1f\x7f.", "line\u2028sep\u2029para.",
            "\r\n\b\f.", "日本語 😀.", "")


def test_pair_writer_lines_equal_json_dumps(monkeypatch):
    shared = "Premise: " + _AWKWARD[0]
    twin = "".join(["Premise: ", _AWKWARD[0]])
    other = "Premise: " + _AWKWARD[2]
    assert twin == shared and twin is not shared
    # one shared object, an equal but distinct string, alternation, and a
    # premise run that starts where another ends
    premises = [shared, shared, shared, twin, other, shared, other, _AWKWARD[1], "", ""]
    ends = itertools.cycle(itertools.product(Label, Provenance))  # consistent or not
    pairs = [
        NliPair(f"id{i} {_AWKWARD[i % 6]}", premise, f"H{i}: {_AWKWARD[-i % 6]}", *next(ends))
        for i, premise in enumerate(premises)
    ]
    encoded = []
    to_json = nli.to_json
    monkeypatch.setattr(nli, "to_json", lambda value: encoded.append(value) or to_json(value))
    out = io.StringIO()
    counts = nli.write_pairs(pairs, out)
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    assert lines == [json.dumps(pair.to_dict(), ensure_ascii=False) for pair in pairs]
    assert counts == {prov: sum(p.provenance is prov for p in pairs) for prov in Provenance}
    # a premise is encoded once per run of equal premises
    assert [v for v in encoded if v in premises] == [shared, other, shared, other, _AWKWARD[1], ""]


def test_label_and_provenance_render_as_plain_strings():
    assert str(Label.ENTAILED) == "entailed"
    assert str(Provenance.INCORRECT_OPTION) == "incorrect_option"
    assert f"{Label.NOT_ENTAILED}" == "not_entailed"


def test_build_pairs_realizes_only_rank_1(monkeypatch, fixtures_dir, qa2d_parses):
    examples = attach_parses(
        load_qa_jsonl(fixtures_dir / "qa2d_fixtures.jsonl", "span"), qa2d_parses
    )
    realized = []
    realize = QuestionPlan.realize

    def counting_realize(plan, answer):
        candidates = realize(plan, answer)
        realized.append(len(candidates))
        return candidates

    monkeypatch.setattr(QuestionPlan, "realize", counting_realize)
    assert build_pairs(examples, EngineConfig(emit_alternatives=3)) == build_pairs(examples)
    assert len(realized) == 104 and set(realized) == {1}  # 52 answers, two builds


_PARSES = index_by_sent_id(load_conllu(Path(__file__).parent / "fixtures" / "qa2d_fixtures.conllu"))
# Answers that rewrite alike after trimming, or fail to rewrite at all
_OPTIONS = ("milk", "milk.", " milk ", "bread", "bread.", "UN", "the UN", "Paris", "in Paris",
            "Monday", "on Monday", "next week", "", "?")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_PARSES)),
            st.lists(st.sampled_from(_OPTIONS), min_size=1, max_size=6),
            st.integers(0, 5),
        ),
        min_size=1, max_size=4, unique_by=lambda item: item[0],
    ),
    st.sampled_from(nli.NEGATIVE_POLICIES),
    st.integers(0, 3),
)
def test_convert_never_writes_one_hypothesis_twice_per_item(items, negatives, seed):
    # build_pairs gives the pairs convert writes (test_cli pins the bytes)
    examples = [
        QAExample(fid, "", f"passage of {fid}", tuple(
            AnswerOption(text, i == correct % len(texts)) for i, text in enumerate(texts)
        ), parse=_PARSES[fid])
        for fid, texts, correct in items
    ]
    result = build_pairs(examples, negatives=negatives, seed=seed)
    written: dict[str, list[tuple[str, str]]] = {}
    for pair in result.pairs:
        written.setdefault(pair.id.rsplit(":", 1)[0], []).append((pair.premise, pair.hypothesis))
    for example_id, rows in written.items():
        assert len(set(rows)) == len(rows), (example_id, rows)
    # every option asked for is written or skipped, once
    for example in examples:
        skips = [s for s in result.skips if s.example_id == example.id]
        if any(s.option is None for s in skips):
            continue  # the question itself was skipped
        wanted = 1 + (min(len(example.incorrect_options), 1) if negatives == "one-random"
                      else len(example.incorrect_options))
        assert len(written.get(example.id, ())) + len(skips) == wanted


# -- invariants on the committed generated corpora ----------------------------

GENERATED = [("gen_qa2d_long_100", "span"), ("gen_convert_mc_200", "multichoice")]


def _generated(fixtures_dir, stem, schema):
    examples = load_qa_jsonl(fixtures_dir / f"{stem}.jsonl", schema)
    parses = index_by_sent_id(load_conllu(fixtures_dir / f"{stem}.conllu"))
    return attach_parses(examples, parses)


@pytest.mark.parametrize(("stem", "schema"), GENERATED)
@pytest.mark.parametrize("copy_wh_phrase", [False, True])
def test_generated_candidate_texts_are_distinct(fixtures_dir, stem, schema, copy_wh_phrase):
    config = EngineConfig(emit_alternatives=3, copy_wh_phrase=copy_wh_phrase)
    answers = alternatives = 0
    examples = _generated(fixtures_dir, stem, schema)
    for pair_id, _, _, candidates in nli.iter_rewrites(examples, config, []):
        texts = [c.text for c in candidates]
        assert len(set(texts)) == len(texts), (pair_id, texts)
        assert [c.rank for c in candidates] == list(range(1, len(texts) + 1))
        answers += 1
        alternatives += len(texts) > 1
    assert answers and alternatives  # some answers do get alternatives


@pytest.mark.parametrize(("stem", "schema"), GENERATED)
def test_generated_labels_follow_provenance(fixtures_dir, stem, schema):
    examples = _generated(fixtures_dir, stem, schema)
    by_id = {ex.id: ex for ex in examples}
    result = build_pairs(examples, negatives="all")
    rewritten = set()
    for pair in result.pairs:
        example_id, n = pair.id.rsplit(":", 1)
        example = by_id[example_id]
        if pair.provenance is Provenance.CORRECT_ANSWER:
            assert pair.label is Label.ENTAILED and n == "0"
        else:
            assert pair.provenance is Provenance.INCORRECT_OPTION
            assert pair.label is Label.NOT_ENTAILED
        assert pair.premise == example.passage
        rewritten.add(example_id)
    # every example is rewritten, or skipped whole, at analysis
    skipped = {s.example_id for s in result.skips}
    assert {s.stage for s in result.skips} == {"analysis"}
    assert rewritten | skipped == set(by_id) and not rewritten & skipped
    assert len(result.pairs) == sum(len(by_id[i].options) for i in rewritten)


# -- the batched rewrite loop against the one-example-at-a-time oracle ---------


def _events(rewrite, examples, config, **policy):
    """Each yield with the number of skips reported when it came, then the skips."""
    skips = []
    log = [(*rewrite_, len(skips)) for rewrite_ in rewrite(examples, config, skips, **policy)]
    return log, skips


def _parse(sid, *rows):
    """A DepSentence from (form, lemma, upos, head, deprel) rows."""
    tokens = tuple(
        DepToken(id=i, form=form, lemma=lemma, upos=upos, xpos=None, head=head, deprel=deprel)
        for i, (form, lemma, upos, head, deprel) in enumerate(rows, start=1)
    )
    return DepSentence(tokens=tokens, text=" ".join(r[0] for r in rows), sent_id=sid)


def _skip_kinds():
    """One example per way an example or an option can be skipped."""
    who = _who_parse("k", "called", "Taylor")
    yes_no = _parse(
        "k", ("Did", "do", "AUX", 3, "aux"), ("Liz", "Liz", "PROPN", 3, "nsubj"),
        ("call", "call", "VERB", 0, "root"), ("Taylor", "Taylor", "PROPN", 3, "obj"),
        ("?", "?", "PUNCT", 3, "punct"),
    )
    what_d = _parse(  # "'d" has lemma "do" but tells no tense
        "k", ("What", "what", "PRON", 4, "obj"), ("'d", "do", "AUX", 4, "aux"),
        ("you", "you", "PRON", 4, "nsubj"), ("buy", "buy", "VERB", 0, "root"),
        ("?", "?", "PUNCT", 4, "punct"),
    )

    def ex(kind, parse, *options, answerable=True):
        return QAExample(f"skip-{kind}", "", f"passage {kind}",
                         tuple(AnswerOption(t, c) for t, c in options), answerable, parse)

    return [
        ex("parse", None, ("Liz", True)),
        ex("yes-no", yes_no, ("yes", True), ("no", False)),
        ex("no-correct", who, ("Liz", False), ("Tom", False)),
        ex("no-plausible", who, answerable=False),
        ex("do-support", what_d, ("milk", True), ("bread", False)),
        ex("empty-option", who, ("Liz", True), ("   ", False), ("Tom", False)),
        ex("duplicate", who, ("Liz", True), ("Liz.", False), ("Tom", False), ("Tom.", False)),
    ]


def _crafted(multichoice_examples, pad):
    """pad rewritable examples, then each skip kind followed by one more, so
    every kind sits at and beside a batch boundary for some pad."""
    good = itertools.cycle(multichoice_examples)
    out = [next(good)._replace(id=f"pad{i}") for i in range(pad)]
    for kind in _skip_kinds():
        out += [kind, next(good)._replace(id=f"after-{kind.id}")]
    return out


def _fixture_corpora(fixtures_dir, qa2d_parses, multichoice_examples):
    def load(name, schema, parses=qa2d_parses):
        return attach_parses(load_qa_jsonl(fixtures_dir / name, schema), parses)

    return {
        "span": load("qa2d_fixtures.jsonl", "span"),
        "multichoice": multichoice_examples,
        "unanswerable": load("unanswerable_fixtures.jsonl", "unanswerable"),
        **{stem: _generated(fixtures_dir, stem, schema) for stem, schema in GENERATED},
    }


_CONFIGS = [EngineConfig(), EngineConfig(emit_alternatives=3, copy_wh_phrase=True)]


@pytest.mark.parametrize("batch", [1, 2, 3, 64])
def test_iter_rewrites_equals_the_one_example_at_a_time_oracle(
    monkeypatch, batch, fixtures_dir, qa2d_parses, multichoice_examples
):
    monkeypatch.setattr(nli, "_BATCH", batch)
    corpora = _fixture_corpora(fixtures_dir, qa2d_parses, multichoice_examples)
    # skip kind j sits at position pad + 2j: last in a batch for one pad, first for the next
    for pad in range(max(batch - 2 * len(_skip_kinds()) + 1, 0), batch + 1):
        corpora[f"crafted, pad {pad}"] = _crafted(multichoice_examples, pad)
    for name, examples in corpora.items():
        for config, negatives in itertools.product(_CONFIGS, nli.NEGATIVE_POLICIES):
            policy = {"negatives": negatives, "seed": 3}
            expected = _events(oracles.oracle_iter_rewrites, examples, config, **policy)
            assert _events(nli.iter_rewrites, examples, config, **policy) == expected, (
                name, config, negatives)


def test_crafted_corpus_reaches_every_skip_kind(multichoice_examples):
    _, skips = _events(oracles.oracle_iter_rewrites, _crafted(multichoice_examples, 0),
                       EngineConfig())
    assert [(s.example_id, s.stage, s.reason, s.option) for s in skips] == [
        ("skip-parse", "parse", "no dependency parse for this id", None),
        ("skip-yes-no", "analysis", "no wh word", None),
        ("skip-no-correct", "options", "no correct answer", None),
        ("skip-no-plausible", "options", "unanswerable without a plausible answer", None),
        ("skip-do-support", "transform", "unsupported do-support form \"'d\"", None),
        ("skip-empty-option", "transform", "answer is empty after trimming", "   "),
        ("skip-duplicate", "options", "same hypothesis as the correct answer", "Liz."),
        ("skip-duplicate", "options", "same hypothesis as option 'Tom'", "Tom."),
    ]


def test_iter_rewrites_holds_one_batch(monkeypatch, multichoice_examples):
    # the examples are read a batch at a time, not all before the first yield
    monkeypatch.setattr(nli, "_BATCH", 4)
    taken = []

    def examples():
        for example in multichoice_examples:
            taken.append(example.id)
            yield example

    rewrites = nli.iter_rewrites(examples(), EngineConfig(), [])
    next(rewrites)
    assert len(taken) == 4
