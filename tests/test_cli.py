"""CLI behavior: exit codes, determinism, skip reporting, output formats.

Most tests drive main() in-process for speed; one subprocess test proves the
module entry point works end to end.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qa2nli import artifacts, cli, nli
from qa2nli.cli import main
from qa2nli.conllu import index_by_sent_id, load_conllu
from qa2nli.engine import DeclarativeCandidate, QuestionPlan
from qa2nli.metrics import evaluate, load_eval_records
from qa2nli.nli import attach_parses, build_pairs, load_qa_jsonl, write_nli_jsonl

_FIXTURES = Path(__file__).parent / "fixtures"
QA = str(_FIXTURES / "qa2d_fixtures.jsonl")
PARSES = str(_FIXTURES / "qa2d_fixtures.conllu")
MC_QA = str(_FIXTURES / "multichoice_20.jsonl")
MC_PARSES = str(_FIXTURES / "multichoice_20.conllu")


def _qa2d(out, *extra):
    return main(["qa2d", "--qa", QA, "--parses", PARSES, "--output", str(out), *extra])


def _convert(out, *extra):
    return main(
        ["convert", "--qa", MC_QA, "--parses", MC_PARSES, "--schema", "multichoice",
         "--output", str(out), *extra]
    )


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# -- qa2d -------------------------------------------------------------------


def test_qa2d_writes_all_fixtures(tmp_path, capsys):
    out = tmp_path / "decl.jsonl"
    assert _qa2d(out) == 0
    rows = _rows(out)
    assert len(rows) == 52
    assert [r["rank"] for r in rows] == [1] * 52
    assert rows[0] == {
        "id": "f01",
        "declarative": "Liz called Taylor.",
        "rank": 1,
        "applied_rules": [
            "qtype:Who", "delete_wh_phrase:1-1", "insert:subject_position", "realize",
        ],
    }
    assert "52 declaratives written, 0 skipped" in capsys.readouterr().err


def test_qa2d_idempotent_and_job_invariant(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    _qa2d(a)
    _qa2d(b)
    _qa2d(c, "--jobs", "4")
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_qa2d_writer_lines_equal_json_dumps(monkeypatch):
    example_id = 'q "1" \\ ü\u2028\x01'
    candidates = [
        DeclarativeCandidate('Zoë said "hi" \\ left.', ("Zoë",), ("qtype:who", "realize"), 1),
        DeclarativeCandidate("Tab\there\x00\u2029.", ("Tab",), (), 2),
        DeclarativeCandidate("日本語.", ("日本語",), ("copy_wh_nouns:日本_\u2028\"", "realize"), 12),
    ]
    encoded = []
    to_json = nli.to_json
    monkeypatch.setattr(nli, "to_json", lambda value: encoded.append(value) or to_json(value))
    out = io.StringIO()
    assert nli.write_declaratives(out, example_id, candidates) == 3
    rows = [
        {"id": example_id, "declarative": c.text, "rank": c.rank,
         "applied_rules": list(c.applied_rules)}
        for c in candidates
    ]
    assert out.getvalue() == "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    assert encoded.count(example_id) == 1  # once per example, not per candidate


def test_qa2d_alternatives(tmp_path):
    out = tmp_path / "alt.jsonl"
    _qa2d(out, "--alternatives", "3")
    rows = _rows(out)
    ranks = {r["id"]: [q["rank"] for q in rows if q["id"] == r["id"]] for r in rows}
    assert ranks["f03"] == [1, 2]  # on/in preposition variants
    assert ranks["f01"] == [1]  # subject questions have no variants
    # order is by input line, ranks ascending within an id
    assert [r["id"] for r in rows] == sorted(
        [r["id"] for r in rows], key=lambda i: (int(i[1:]),)
    )


def test_qa2d_copy_wh_phrase_flag(tmp_path):
    out = tmp_path / "copy.jsonl"
    _qa2d(out, "--copy-wh-phrase")
    by_id = {r["id"]: r["declarative"] for r in _rows(out)}
    assert by_id["f45"] == "50 People attended the meeting."


def test_qa2d_reports_missing_parse_as_skip(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        json.dumps({"id": "zz", "question": "Who won?", "passage": "p", "answer": "Liz"})
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    code = main(["qa2d", "--qa", str(qa), "--parses", PARSES, "--output", str(out)])
    assert code == 0  # skips are not fatal
    err = capsys.readouterr().err
    skip = json.loads(err.splitlines()[0])
    assert skip == {"id": "zz", "stage": "parse", "reason": "no dependency parse for this id"}
    assert "0 declaratives written, 1 skipped" in err
    assert out.read_text(encoding="utf-8") == ""


_NON_WH_PARSE = """# sent_id = nw
# text = Did Liz win?
1\tDid\tdo\tAUX\t_\t_\t3\taux\t_\t_
2\tLiz\tLiz\tPROPN\t_\t_\t3\tnsubj\t_\t_
3\twin\twin\tVERB\t_\t_\t0\troot\t_\t_
4\t?\t?\tPUNCT\t_\t_\t3\tpunct\t_\t_
"""


_WHO_CALLED = """# sent_id = ok
# text = Who called Taylor?
1\tWho\twho\tPRON\tWP\t_\t2\tnsubj\t_\t_
2\tcalled\tcall\tVERB\tVBD\t_\t0\troot\t_\t_
3\tTaylor\tTaylor\tPROPN\tNNP\t_\t2\tobj\t_\t_
4\t?\t?\tPUNCT\t.\t_\t2\tpunct\t_\t_
"""

_WHO_HELPED = """# sent_id = bad
# text = Who helped Ann?
1\tWho\twho\tPRON\tWP\t_\t2\tnsubj\t_\t_
2\thelped\thelp\tVERB\tVBD\t_\t0\troot\t_\t_
3\tAnn\tAnn\tPROPN\tNNP\t_\t2\tobj\t_\t_
4\t?\t?\tPUNCT\t.\t_\t2\tpunct\t_\t_
"""

# "'d" has lemma "do" but tells no tense: did? does? would?
_WHAT_D = """# sent_id = bad
# text = What'd you buy?
1\tWhat\twhat\tPRON\tWP\t_\t4\tobj\t_\t_
2\t'd\tdo\tAUX\tVBD\t_\t4\taux\t_\t_
3\tyou\tyou\tPRON\tPRP\t_\t4\tnsubj\t_\t_
4\tbuy\tbuy\tVERB\tVB\t_\t0\troot\t_\t_
5\t?\t?\tPUNCT\t.\t_\t4\tpunct\t_\t_
"""


# the subject is the "?", so no word is left to put the auxiliary behind
_WHERE_WILL_GO = """# sent_id = bad
# text = Where will go?
1\tWhere\twhere\tADV\tWRB\t_\t3\tadvmod\t_\t_
2\twill\twill\tAUX\tMD\t_\t3\taux\t_\t_
3\tgo\tgo\tVERB\tVB\t_\t0\troot\t_\t_
4\t?\t?\tPUNCT\t.\t_\t3\tnsubj\t_\t_
"""


@pytest.mark.parametrize(
    ("question", "answer", "parse", "reason", "per_option"),
    [
        # the answer's "?" survives into the sentence, which a declarative may not hold
        ("Who helped Ann?", "Sam? No, Tom", _WHO_HELPED,
         "candidate text may not contain '?'", True),
        # the question fails before any answer is tried, so the skip names no option
        ("What'd you buy?", "milk", _WHAT_D, "unsupported do-support form \"'d\"", False),
        ("Where will go?", "home", _WHERE_WILL_GO, "the subject has no words", False),
    ],
    ids=["question-mark-in-answer", "contracted-do", "subject-without-words"],
)
@pytest.mark.parametrize("command", ["qa2d", "convert"])
def test_unrewritable_item_is_a_transform_skip(
    tmp_path, capsys, command, question, answer, parse, reason, per_option
):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        "".join(
            json.dumps({"id": i, "question": q, "passage": "p", "answer": a}) + "\n"
            for i, q, a in (("bad", question, answer), ("ok", "Who called Taylor?", "Liz"))
        ),
        encoding="utf-8",
    )
    parses = tmp_path / "parses.conllu"
    parses.write_text(parse + "\n" + _WHO_CALLED, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = ["qa2d"] if command == "qa2d" else ["convert", "--schema", "span"]
    assert main([*argv, "--qa", str(qa), "--parses", str(parses), "--output", str(out)]) == 0
    skip = {"id": "bad", "stage": "transform", "reason": reason}
    if per_option:
        skip["option"] = answer
    summary = (
        "1 declaratives written" if command == "qa2d" else "1 pairs written (correct_answer=1)"
    )
    assert capsys.readouterr().err == (
        json.dumps(skip, ensure_ascii=False) + f"\nqa2nli: {summary}, 1 skipped\n"
    )
    (row,) = _rows(out)
    assert row.get("declarative", row.get("hypothesis")) == "Liz called Taylor."


@pytest.mark.parametrize(
    ("item_id", "answer", "parse", "stage", "per_option"),
    [
        ("nw", "yes", _NON_WH_PARSE, "analysis", False),
        ("zz", "yes", _NON_WH_PARSE, "parse", False),
        ("bad", "Sam? No, Tom", _WHO_HELPED, "transform", True),
        ("bad", "milk", _WHAT_D, "transform", False),
        ("bad", "home", _WHERE_WILL_GO, "transform", False),
    ],
    ids=[
        "non-wh", "missing-parse",
        "question-mark-in-answer", "contracted-do", "subject-without-words",
    ],
)
def test_qa2d_and_convert_classify_skips_alike(
    tmp_path, capsys, item_id, answer, parse, stage, per_option
):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        json.dumps({"id": item_id, "question": "Q?", "passage": "p", "answer": answer}) + "\n",
        encoding="utf-8",
    )
    parses = tmp_path / "parses.conllu"
    parses.write_text(parse, encoding="utf-8")
    common = ["--qa", str(qa), "--parses", str(parses), "--output", str(tmp_path / "out")]
    skips = {}
    for command in (["qa2d"], ["convert", "--schema", "span"]):
        assert main([*command, *common]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[1].endswith(", 1 skipped")
        skips[command[0]] = json.loads(err[0])
    assert skips["qa2d"] == skips["convert"]
    assert list(skips["qa2d"]) == ["id", "stage", "reason", *(["option"] if per_option else [])]
    assert (skips["qa2d"]["id"], skips["qa2d"]["stage"]) == (item_id, stage)


# "?" hangs off "baby", so it is the subject's last token
_BABY = """# sent_id = baby
# text = Where was the baby found?
1\tWhere\twhere\tADV\tWRB\t_\t5\tadvmod\t_\t_
2\twas\tbe\tAUX\tVBD\t_\t5\taux:pass\t_\t_
3\tthe\tthe\tDET\tDT\t_\t4\tdet\t_\t_
4\tbaby\tbaby\tNOUN\tNN\t_\t5\tnsubj:pass\t_\t_
5\tfound\tfind\tVERB\tVBN\t_\t0\troot\t_\t_
6\t?\t?\tPUNCT\t.\t_\t4\tpunct\t_\t_
"""


@pytest.mark.parametrize("command", ["qa2d", "convert"])
def test_question_mark_ending_the_subject_is_rewritten(tmp_path, capsys, command):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        "".join(
            json.dumps({"id": i, "question": q, "passage": "p", "answer": a}) + "\n"
            for i, q, a in (("baby", "Where was the baby found?", "in the park"),
                            ("ok", "Who called Taylor?", "Liz"))
        ),
        encoding="utf-8",
    )
    parses = tmp_path / "parses.conllu"
    parses.write_text(_BABY + "\n" + _WHO_CALLED, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = ["qa2d"] if command == "qa2d" else ["convert", "--schema", "span"]
    assert main([*argv, "--qa", str(qa), "--parses", str(parses), "--output", str(out)]) == 0
    assert capsys.readouterr().err.endswith(" 0 skipped\n")
    assert [row.get("declarative", row.get("hypothesis")) for row in _rows(out)] == [
        "The baby was found in the park.", "Liz called Taylor.",
    ]


# -- convert ----------------------------------------------------------------


def test_convert_multichoice_all(tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    assert _convert(out) == 0
    rows = _rows(out)
    assert len(rows) == 80
    assert all(
        list(r) == ["id", "premise", "hypothesis", "label", "provenance"] for r in rows
    )
    labels = {r["label"] for r in rows}
    assert labels == {"entailed", "not_entailed"}
    err = capsys.readouterr().err
    assert "80 pairs written (correct_answer=20 incorrect_option=60), 0 skipped" in err


def test_convert_one_random(tmp_path):
    out = tmp_path / "pairs.jsonl"
    _convert(out, "--negatives", "one-random", "--seed", "7")
    assert len(_rows(out)) == 40
    again = tmp_path / "again.jsonl"
    _convert(again, "--negatives", "one-random", "--seed", "7")
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    ("negatives", "hypotheses", "summary"),
    [
        (["--negatives", "all"], [("Liz bought milk at the store.", "entailed"),
                                  ("Liz bought bread at the store.", "not_entailed")],
         "2 pairs written (correct_answer=1 incorrect_option=1), 1 skipped"),
        # seed 4 samples "milk.", which leaves the item no negative pair
        (["--negatives", "one-random", "--seed", "4"],
         [("Liz bought milk at the store.", "entailed")],
         "1 pairs written (correct_answer=1), 1 skipped"),
    ],
    ids=["all", "one-random"],
)
def test_convert_never_writes_one_hypothesis_under_both_labels(
    tmp_path, capsys, negatives, hypotheses, summary
):
    qa = tmp_path / "qa.jsonl"
    item = {"id": "f02", "question": "What did Liz buy at the store?", "passage": "p",
            "options": ["milk", "bread", "milk."], "correct": 0}
    qa.write_text(json.dumps(item) + "\n", encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    argv = ["convert", "--schema", "multichoice", "--qa", str(qa), "--parses", PARSES]
    assert main([*argv, "--output", str(out), *negatives]) == 0
    rows = _rows(out)
    assert [(r["hypothesis"], r["label"]) for r in rows] == hypotheses
    assert [r["id"] for r in rows] == [f"f02:{n}" for n in range(len(rows))]
    skip = {"id": "f02", "stage": "options", "reason": "same hypothesis as the correct answer",
            "option": "milk."}
    assert capsys.readouterr().err == json.dumps(skip) + f"\nqa2nli: {summary}\n"


def test_convert_never_writes_one_hypothesis_twice(tmp_path, capsys):
    # "bread." rewrites as the earlier "bread" does; the skip names that option
    qa = tmp_path / "qa.jsonl"
    item = {"id": "f02", "question": "What did Liz buy at the store?", "passage": "p",
            "options": ["milk", "bread", "bread."], "correct": 0}
    qa.write_text(json.dumps(item) + "\n", encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    argv = ["convert", "--schema", "multichoice", "--qa", str(qa), "--parses", PARSES]
    assert main([*argv, "--output", str(out)]) == 0
    assert [(r["id"], r["hypothesis"], r["label"]) for r in _rows(out)] == [
        ("f02:0", "Liz bought milk at the store.", "entailed"),
        ("f02:1", "Liz bought bread at the store.", "not_entailed"),
    ]
    skip = {"id": "f02", "stage": "options", "reason": "same hypothesis as option 'bread'",
            "option": "bread."}
    summary = "2 pairs written (correct_answer=1 incorrect_option=1), 1 skipped"
    assert capsys.readouterr().err == json.dumps(skip) + f"\nqa2nli: {summary}\n"


def test_convert_job_invariant(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _convert(a, "--negatives", "one-random", "--seed", "3")
    _convert(b, "--negatives", "one-random", "--seed", "3", "--jobs", "3")
    assert a.read_bytes() == b.read_bytes()


def test_convert_output_matches_library_writer(tmp_path, multichoice_examples):
    out = tmp_path / "cli.jsonl"
    lib = tmp_path / "lib.jsonl"
    for negatives, seed in (("all", 0), ("one-random", 3)):
        assert _convert(out, "--negatives", negatives, "--seed", str(seed)) == 0
        pairs = build_pairs(multichoice_examples, negatives=negatives, seed=seed).pairs
        assert write_nli_jsonl(pairs, lib) == len(pairs)
        assert out.read_bytes() == lib.read_bytes(), negatives
    # the generated corpus, whose passages are each the premise of four pairs
    examples = attach_parses(
        load_qa_jsonl(_FIXTURES / "gen_convert_mc_200.jsonl", "multichoice"),
        index_by_sent_id(load_conllu(_FIXTURES / "gen_convert_mc_200.conllu")),
    )
    pairs = build_pairs(examples).pairs
    assert write_nli_jsonl(pairs, lib) == len(pairs) == 784
    assert main(["convert", "--qa", str(_FIXTURES / "gen_convert_mc_200.jsonl"), "--parses",
                 str(_FIXTURES / "gen_convert_mc_200.conllu"), "--schema", "multichoice",
                 "--output", str(out)]) == 0
    assert out.read_bytes() == lib.read_bytes()


def test_convert_writes_each_pair_as_it_is_made(tmp_path, monkeypatch):
    realized = []
    realize = QuestionPlan.realize

    def counting_realize(plan, answer):
        candidates = realize(plan, answer)
        realized.append(len(candidates))
        return candidates

    realized_before_pair = []
    write_pairs = cli.write_pairs

    def watching_write_pairs(pairs, out):
        def watched():
            for pair in pairs:
                realized_before_pair.append(len(realized))
                yield pair
        return write_pairs(watched(), out)

    monkeypatch.setattr(QuestionPlan, "realize", counting_realize)
    monkeypatch.setattr(cli, "write_pairs", watching_write_pairs)
    assert _convert(tmp_path / "pairs.jsonl", "--negatives", "all") == 0
    # the k-th pair reaches the writer right after the k-th answer is realized
    assert realized_before_pair == list(range(1, 81))
    assert realized == [1] * 80  # rank 1 only


def test_convert_span_schema(tmp_path):
    out = tmp_path / "span.jsonl"
    code = main(
        ["convert", "--qa", QA, "--parses", PARSES, "--schema", "span",
         "--output", str(out)]
    )
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 52
    assert {r["label"] for r in rows} == {"entailed"}
    assert {r["provenance"] for r in rows} == {"correct_answer"}


# -- eval --------------------------------------------------------------------


@pytest.fixture()
def eval_files(tmp_path):
    hyp = tmp_path / "hyp.jsonl"
    _qa2d(hyp, "--alternatives", "2")
    refs = tmp_path / "refs.jsonl"
    with open(QA, encoding="utf-8") as fh, open(refs, "w", encoding="utf-8") as out:
        for line in fh:
            row = json.loads(line)
            out.write(
                json.dumps(
                    {
                        "id": row["id"],
                        "references": row["gold"],
                        "qtype": row["question"].split()[0],
                        "qa_length": len(row["question"].split()) + len(row["answer"].split()),
                    }
                )
                + "\n"
            )
    return hyp, refs


def test_eval_text_report(tmp_path, eval_files, capsys):
    hyp, refs = eval_files
    code = main(["eval", "--hypotheses", str(hyp), "--references", str(refs)])
    assert code == 0
    text = capsys.readouterr().out
    assert "items            52" in text
    assert "exact match" in text
    assert "by question type:" in text


def test_eval_json_report(tmp_path, eval_files):
    hyp, refs = eval_files
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--hypotheses", str(hyp), "--references", str(refs),
         "--k", "2", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["n"] == 52
    assert report["k"] == 2
    assert report["exact_match"] >= 60.0
    assert report["topk_exact_match"] >= report["exact_match"]
    assert set(report["by_question_type"]) >= {"Who", "What", "When", "Where"}


def test_load_eval_records_matches_eval_json(tmp_path, eval_files):
    hyp, _ = eval_files
    refs = _FIXTURES / "qa2d_references.jsonl"
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--hypotheses", str(hyp), "--references", str(refs),
         "--k", "2", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    report = evaluate(load_eval_records(str(hyp), str(refs)), k=2)
    assert report.to_dict() == json.loads(out.read_text(encoding="utf-8"))


def test_eval_orphan_hypothesis_id(tmp_path, eval_files, capsys):
    hyp, refs = eval_files
    with open(hyp, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "ghost", "declarative": "x.", "rank": 1}) + "\n")
    code = main(["eval", "--hypotheses", str(hyp), "--references", str(refs)])
    assert code == 2
    assert "'ghost' has no reference entry" in capsys.readouterr().err


def test_eval_duplicate_reference_id(tmp_path, eval_files, capsys):
    hyp, refs = eval_files
    line = json.dumps({"id": "f01", "references": ["x."]})
    refs.write_text(line + "\n" + line + "\n", encoding="utf-8")
    assert main(["eval", "--hypotheses", str(hyp), "--references", str(refs)]) == 2
    assert "duplicate id 'f01'" in capsys.readouterr().err


# -- analyze -----------------------------------------------------------------


def test_analyze_text(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    _convert(pairs)
    capsys.readouterr()
    assert main(["analyze", "--pairs", str(pairs)]) == 0
    text = capsys.readouterr().out
    assert "PMI (k=100," in text
    assert "entailed:" in text and "not_entailed:" in text
    assert "hypothesis length by label:" in text
    assert "word overlap by label:" in text


def test_analyze_splits_each_text_once(monkeypatch, capsys):
    # each hypothesis once and each distinct premise once, however many pairs
    # share it; the report is the golden one (tests/test_golden.py)
    calls = []
    normalize = artifacts.normalize
    monkeypatch.setattr(artifacts, "normalize", lambda text: calls.append(text) or normalize(text))
    pairs = _FIXTURES / "scoring_pairs.jsonl"
    assert main(["analyze", "--pairs", str(pairs)]) == 0
    rows = _rows(pairs)
    assert len(rows) == 60
    texts = [r["hypothesis"] for r in rows] + list({r["premise"] for r in rows})
    assert sorted(calls) == sorted(texts)
    assert capsys.readouterr().out == (_FIXTURES / "golden" / "analyze_scoring.text").read_text("utf-8")


def test_analyze_csv(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    _convert(pairs)
    out = tmp_path / "table.csv"
    code = main(
        ["analyze", "--pairs", str(pairs), "--format", "csv", "--top", "3",
         "--smoothing", "1", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,rank,word,pmi,count,percent"
    assert len(lines) == 1 + 2 * 3  # two labels, top 3 each


def test_analyze_single_label_corpus_fails(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    main(["convert", "--qa", QA, "--parses", PARSES, "--schema", "span",
          "--output", str(pairs)])
    capsys.readouterr()
    assert main(["analyze", "--pairs", str(pairs)]) == 2
    assert "two distinct labels" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_analyze_hypothesis_with_no_words(tmp_path, capsys, fmt):
    pairs = tmp_path / "pairs.jsonl"
    rows = [
        {"premise": "Liz called Taylor.", "hypothesis": "...", "label": "entailed"},
        {"premise": "Liz called Taylor.", "hypothesis": "Tom called Taylor.", "label": "not_entailed"},
    ]
    pairs.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "report"
    code = main(["analyze", "--pairs", str(pairs), "--format", fmt, "--output", str(out)])
    err = capsys.readouterr().err
    if fmt == "csv":  # the PMI table computes no overlap
        assert code == 0 and err == ""
        assert out.read_text(encoding="utf-8").startswith("label,rank,word,pmi,count,percent")
        return
    # The text report's overlap table fails: the error names the file and
    # line, and nothing is written, to a file or to stdout.
    assert code == 2 and not out.exists()
    assert err == f"qa2nli: error: {pairs}: line 1: hypothesis has no words\n"
    assert main(["analyze", "--pairs", str(pairs)]) == 2
    assert capsys.readouterr().out == ""


def test_analyze_empty_hypothesis_fails_only_the_text_report(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    rows = [
        {"premise": "Liz called Taylor.", "hypothesis": "Tom called Taylor.", "label": "entailed"},
        {"premise": "Liz called Taylor.", "hypothesis": "", "label": "not_entailed"},
    ]
    pairs.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    text, table = tmp_path / "report.txt", tmp_path / "table.csv"
    assert main(["analyze", "--pairs", str(pairs), "--output", str(text)]) == 2
    assert not text.exists()
    assert capsys.readouterr() == ("", f"qa2nli: error: {pairs}: line 2: hypothesis has no words\n")
    assert main(["analyze", "--pairs", str(pairs), "--format", "csv", "--output", str(table)]) == 0
    assert table.read_text(encoding="utf-8").startswith("label,rank,word,pmi,count,percent\n")
    assert capsys.readouterr() == ("", "")


# -- failure modes ------------------------------------------------------------


def test_missing_input_file(tmp_path, capsys):
    assert main(["qa2d", "--qa", "no-such.jsonl", "--parses", PARSES]) == 2
    assert "qa2nli: error:" in capsys.readouterr().err
    # The message names which input is missing.
    assert main(["qa2d", "--qa", QA, "--parses", "no-such.conllu"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qa2nli: error:") and "no-such.conllu" in err


def test_malformed_jsonl_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    assert main(["analyze", "--pairs", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err  # first violation wins
    # Errors in --qa and --parses start with the path of the bad file.
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        json.dumps({"id": "a", "question": "Who?", "passage": "p", "answer": "x"})
        + '\n{"id": "b", "passage": "p", "answer": "x"}\n',
        encoding="utf-8",
    )
    parses = tmp_path / "parses.conllu"
    parses.write_text("# sent_id = a\n1\tWho\n", encoding="utf-8")
    dup = tmp_path / "dup.conllu"
    sentences = Path(PARSES).read_text(encoding="utf-8").rstrip() + "\n\n"
    dup.write_text(sentences * 2, encoding="utf-8")  # every sent_id twice
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(json.dumps({"id": "f01", "declarative": "x.", "rank": 1}) + "\n",
                    encoding="utf-8")
    refs = {}
    for name, ref in (
        ("empty_refs", {"id": "f01", "references": []}),
        ("non_string_ref", {"id": "f01", "references": ["Liz called Taylor.", 3]}),
        ("qtype", {"id": "f01", "references": ["x."], "qtype": 5}),
        ("qa_length_str", {"id": "f01", "references": ["x."], "qa_length": "4"}),
        ("qa_length_bool", {"id": "f01", "references": ["x."], "qa_length": True}),
        ("qa_length_negative", {"id": "f01", "references": ["x."], "qa_length": -3}),
        ("qa_length_zero", {"id": "f01", "references": ["x."], "qa_length": 0}),
    ):
        refs[name] = tmp_path / f"{name}.jsonl"
        refs[name].write_text(json.dumps(ref) + "\n", encoding="utf-8")
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n\n", encoding="utf-8")
    one_label = tmp_path / "one_label.jsonl"
    one_label.write_text(
        "".join(json.dumps({"premise": "Liz called Taylor.", "hypothesis": h, "label": "entailed"})
                + "\n" for h in ("Liz called Taylor.", "Tom called Taylor.")),
        encoding="utf-8",
    )
    # the bad byte sits past the reader's first buffer, on line 3
    latin = tmp_path / "latin.jsonl"
    latin.write_bytes(b"\n" + b" " * 9000 + b"\n" + '{"id": "caf\u00e9"}\n'.encode("latin-1"))
    latin_parses = tmp_path / "latin.conllu"
    latin_parses.write_bytes(Path(PARSES).read_bytes() + "# caf\u00e9\n".encode("latin-1"))
    n_parse_lines = len(Path(PARSES).read_bytes().splitlines())
    utf8 = "line 3: not valid UTF-8"
    convert = ["convert", "--schema", "span"]
    non_empty = "'references' must be a non-empty list of strings"
    for argv, message in (
        ([*convert, "--qa", str(qa), "--parses", PARSES], f"{qa}: line 2: missing key 'question'"),
        ([*convert, "--qa", QA, "--parses", str(parses)],
         f"{parses}: line 2: expected 10 tab-separated"),
        ([*convert, "--qa", QA, "--parses", str(dup)], f"{dup}: duplicate sent_id 'f01'"),
        *(
            (["eval", "--hypotheses", str(hyps), "--references", str(refs[name])],
             f"{refs[name]}: line 1: {text}")
            for name, text in (
                ("empty_refs", non_empty),
                ("non_string_ref", non_empty),
                ("qtype", "'qtype' must be a string"),
                ("qa_length_str", "'qa_length' must be an int"),
                ("qa_length_bool", "'qa_length' must be an int"),
                ("qa_length_negative", "'qa_length' must be >= 1, got -3"),
                ("qa_length_zero", "'qa_length' must be >= 1, got 0"),
            )
        ),
        (["analyze", "--pairs", str(blank)], f"{blank}: no pairs\n"),
        (["analyze", "--pairs", str(one_label)],
         f"{one_label}: need at least two distinct labels for PMI\n"),
        ([*convert, "--qa", str(latin), "--parses", PARSES], f"{latin}: {utf8}\n"),
        (["qa2d", "--qa", QA, "--parses", str(latin_parses)],
         f"{latin_parses}: line {n_parse_lines + 1}: not valid UTF-8\n"),
        (["analyze", "--pairs", str(latin)], f"{latin}: {utf8}\n"),
        (["eval", "--hypotheses", str(latin), "--references",
          str(_FIXTURES / "qa2d_references.jsonl")],
         f"{latin}: {utf8}\n"),
        (["eval", "--hypotheses", str(hyps), "--references", str(latin)], f"{latin}: {utf8}\n"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"qa2nli: error: {message}")
        assert captured.out == ""


def test_a_lone_surrogate_escape_is_an_input_error(tmp_path, capsys):
    # json.loads keeps a lone "\ud800"; no output file can hold it as UTF-8.
    qa = tmp_path / "qa.jsonl"
    lines = Path(QA).read_text(encoding="utf-8").splitlines()[:3]
    lines[2] = lines[2].replace('"passage": "', '"passage": "x\\ud800', 1)
    qa.write_text("\n".join(lines) + "\n", encoding="utf-8")
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text('{"id": "f01", "declarative": "Liz called Taylor.", "rank": 1}\n'
                    '{"id": "f02", "declarative": "\\uDC00.", "rank": 1}\n', encoding="utf-8")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"premise": "p", "hypothesis": "h", "label": "entailed"}\n'
                     '{"premise": "p", "hypothesis": "\\udbff", "label": "entailed"}\n',
                     encoding="utf-8")
    out = tmp_path / "out.jsonl"
    message = "not valid Unicode: a \\u escape of a lone surrogate\n"
    for argv, error in (
        (["qa2d", "--qa", str(qa), "--parses", PARSES, "--output", str(out)],
         f"{qa}: line 3: {message}"),
        (["convert", "--schema", "span", "--qa", str(qa), "--parses", PARSES,
          "--output", str(out)], f"{qa}: line 3: {message}"),
        (["eval", "--hypotheses", str(hyps), "--references",
          str(_FIXTURES / "qa2d_references.jsonl"), "--output", str(out)],
         f"{hyps}: line 2: {message}"),
        (["analyze", "--pairs", str(pairs), "--output", str(out)], f"{pairs}: line 2: {message}"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"qa2nli: error: {error}")
        assert not out.exists(), argv[0]


def _conllu_row(tid, form, head):
    return "\t".join((str(tid), form, form.lower(), "X", "_", "_", str(head), "dep", "_", "_"))


def _conllu(*rows):
    """One sentence, sent_id q1, from (id, form, head) rows; its first row is line 3."""
    return "# sent_id = q1\n# text = x\n" + "\n".join(_conllu_row(*r) for r in rows) + "\n"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (_conllu((1, "a", 0), (2, "b", 1), (4, "c", 2)),
         "sentence 'q1': token ids are not exactly 1..3: [1, 2, 4]"),
        (_conllu((2, "a", 0), (1, "b", 2)),
         "sentence 'q1': token ids are not exactly 1..2: [2, 1]"),
        (_conllu((1, "a", 0), (2, "b", 0)),
         "sentence 'q1': expected exactly one root, found heads of 0 at [1, 2]"),
        (_conllu((1, "a", 2), (2, "b", 1)),
         "sentence 'q1': expected exactly one root, found heads of 0 at []"),
        (_conllu((1, "a", 0), (2, "b", 5)),
         "sentence 'q1': token 2 has head 5 beyond last id 2"),
        (_conllu((1, "a", 0), (2, "b", 3), (3, "c", 2), (4, "d", 5), (5, "e", 4)),
         "sentence 'q1': cycle through token 2"),
        (_conllu((1, "a", 0), (2, "b", 0), (3, "c", 9)),  # the root count is reported first
         "sentence 'q1': expected exactly one root, found heads of 0 at [1, 2]"),
        (_conllu((1, "a", 0), ("x", "b", 1)), "line 4: bad token id 'x'"),
        (_conllu((1, "a", 0), ("²", "b", 1)), "line 4: bad token id '²'"),
        (_conllu(("1-x", "ab", 0), (1, "a", 0), (2, "b", 1)), "line 3: bad token id '1-x'"),
        # DepToken's own checks, reached through the parser
        (_conllu((0, "a", 1), (1, "b", 0)), "line 3: token id must be >= 1, got 0"),
        (_conllu((1, "a", 0), (2, "b", -1)), "line 4: token head must be >= 0, got -1"),
        (_conllu((1, "a", 0), (2, "b", 2)), "line 4: token 2 has itself as head"),
        (_conllu((1, "a", 0), (2, "", 1)), "line 4: token 2 has an empty form"),
        # multiword ranges and empty nodes are skipped, not errors
        (_conllu(("1-2", "ab", "_"), (1, "a", 0), (2, "b", 1), ("2.1", "c", "_")), None),
        # str.splitlines() also breaks lines at these; CoNLL-U lines end at newlines only
        *((_conllu((1, f"a{sep}b", 0), (2, "c", 1), ("x", "d", 1)), "line 5: bad token id 'x'")
          for sep in ("\x85", "\u2028", "\x0c")),
    ],
    ids=[
        "id-gap", "ids-out-of-order", "two-roots", "no-root", "head-beyond-n", "two-cycles",
        "head-beyond-n-after-two-roots", "non-digit-id", "unicode-digit-id", "bad-range-id",
        "id-zero", "head-minus-one", "own-head", "empty-form", "valid-range-and-empty-node",
        "next-line-in-form", "line-separator-in-form", "form-feed-in-form",
    ],
)
def test_conllu_error_messages(tmp_path, capsys, text, message):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        json.dumps({"id": "q1", "question": "Who called Taylor?", "passage": "p", "answer": "Liz"})
        + "\n",
        encoding="utf-8",
    )
    parses = tmp_path / "parses.conllu"
    parses.write_text(text, encoding="utf-8")
    for command in (["qa2d"], ["convert", "--schema", "span"]):
        code = main([*command, "--qa", str(qa), "--parses", str(parses)])
        captured = capsys.readouterr()
        if message is None:  # the item is read, then skipped: "a" is no wh word
            assert code == 0
            assert captured.err.startswith('{"id": "q1", "stage": "analysis"')
        else:
            assert code == 2
            assert captured.err == f"qa2nli: error: {parses}: {message}\n"
            assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["qa2d", "--qa", "no-such.jsonl", "--parses", "no-such.conllu", "--jobs", "0"],
        ["convert", "--qa", "no-such.jsonl", "--parses", "no-such.conllu",
         "--schema", "span", "--jobs", "-1"],
        ["qa2d", "--qa", "no-such.jsonl", "--parses", "no-such.conllu", "--alternatives", "0"],
        ["eval", "--hypotheses", "no-such.jsonl", "--references", "no-such.jsonl", "--k", "0"],
        ["analyze", "--pairs", "no-such.jsonl", "--top", "0"],
    ],
    ids=["jobs", "convert-jobs", "alternatives", "k", "top"],
)
def test_flag_below_one_fails_before_reading_input(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be >= 1, got {argv[-1]}" in err
    assert "no-such" not in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["qa2d", "--qa", "no-such.jsonl", "--parses", "no-such.conllu", "--alternatives", "x"],
         "argument --alternatives: invalid int value: 'x'"),
        (["analyze", "--pairs", "no-such.jsonl", "--smoothing", "x"],
         "argument --smoothing: invalid float value: 'x'"),
    ],
    ids=["alternatives", "smoothing"],
)
def test_non_numeric_flag_fails_before_reading_input(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "no-such" not in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_smoothing_fails_before_reading_input(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--pairs", "no-such.jsonl", "--smoothing", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --smoothing: must be finite and >= 0, got {value}" in err
    assert "no-such" not in err


_BAD_INPUTS = {  # name -> (the bad input, what follows its good copy; None repeats the copy)
    "malformed-qa-line": ("qa", b'{"id": "zz", "question": "Who?"\n'),
    "malformed-conllu-line": ("parses", b"# sent_id = zz\n1\tWho\n"),
    "not-a-tree": ("parses", _conllu((1, "a", 2), (2, "b", 1)).encode()),
    "duplicate-sent-id": ("parses", None),
    "non-utf8-qa": ("qa", '{"id": "caf\u00e9"}\n'.encode("latin-1")),
    "non-utf8-parses": ("parses", "# caf\u00e9\n".encode("latin-1")),
}


@pytest.mark.parametrize("bad", list(_BAD_INPUTS))
@pytest.mark.parametrize("command", ["qa2d", "convert"])
def test_input_error_leaves_no_output(tmp_path, capsys, command, bad):
    """Both row commands read and check all input before they open the output."""
    which, tail = _BAD_INPUTS[bad]
    qa, parses = (QA, PARSES) if command == "qa2d" else (MC_QA, MC_PARSES)
    files = {name: Path(path).read_bytes().rstrip() + b"\n\n"
             for name, path in (("qa", qa), ("parses", parses))}
    files[which] = files[which] * 2 if tail is None else files[which] + tail
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = ["qa2d"] if command == "qa2d" else ["convert", "--schema", "multichoice"]
    out = tmp_path / "out.jsonl"
    assert main([*argv, "--qa", str(tmp_path / "qa"), "--parses", str(tmp_path / "parses"),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"qa2nli: error: {tmp_path / which}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "summary"),
    [
        (["qa2d"], "qa2nli: 0 declaratives written, 0 skipped"),
        (["convert", "--schema", "multichoice"], "qa2nli: 0 pairs written (none), 0 skipped"),
    ],
    ids=["qa2d", "convert"],
)
def test_empty_qa_file_writes_empty_output(tmp_path, capsys, argv, summary):
    qa = tmp_path / "empty.jsonl"
    qa.write_bytes(b"")
    out = tmp_path / "out.jsonl"
    assert main([*argv, "--qa", str(qa), "--parses", MC_PARSES, "--output", str(out)]) == 0
    assert out.read_bytes() == b""
    assert capsys.readouterr().err == summary + "\n"


@pytest.mark.parametrize("command", ["qa2d", "convert"])
def test_closed_stdout_stops_quietly(command, child_env):
    """Runs `python -m qa2nli`, or the `qa2nli` executable that QA2NLI_CLI
    names, such as the script of an installed copy."""
    cli_path = os.environ.get("QA2NLI_CLI")
    argv = [cli_path, command] if cli_path else [sys.executable, "-m", "qa2nli", command]
    if command == "qa2d":
        argv += ["--qa", QA, "--parses", PARSES, "--alternatives", "3"]
    else:
        argv += ["--qa", MC_QA, "--parses", MC_PARSES, "--schema", "multichoice"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, encoding="utf-8",
        env=None if cli_path else child_env,
    )
    proc.stdout.close()  # the reader is gone before the first line is written
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert "error" not in err and "Traceback" not in err


def test_module_entry_point(tmp_path, child_env):
    result = subprocess.run(
        [sys.executable, "-m", "qa2nli", "qa2d", "--qa", QA, "--parses", PARSES,
         "--output", str(tmp_path / "out.jsonl")],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=child_env,
    )
    assert result.returncode == 0
    assert "52 declaratives written" in result.stderr
