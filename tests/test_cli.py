"""CLI behavior: exit codes, determinism, skip reporting, output formats.

Most tests drive main() in-process for speed; one subprocess test proves the
module entry point works end to end.
"""

import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from qa2nli import artifacts, cli, conllu, nli
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


def test_convert_copy_wh_phrase_flag(tmp_path):
    decl, plain, copied = (tmp_path / name for name in ("d.jsonl", "plain.jsonl", "copy.jsonl"))
    assert _qa2d(decl, "--copy-wh-phrase") == 0
    span = ["convert", "--qa", QA, "--parses", PARSES, "--schema", "span"]
    assert main([*span, "--output", str(plain)]) == 0
    assert main([*span, "--copy-wh-phrase", "--output", str(copied)]) == 0
    rank1 = {r["id"]: r["declarative"] for r in _rows(decl) if r["rank"] == 1}
    rows, plain_rows = _rows(copied), _rows(plain)
    hypotheses = {r["id"].partition(":")[0]: r["hypothesis"] for r in rows}
    assert len(rows) == len(rank1) == 52 and hypotheses == rank1
    assert [r["id"] for r in plain_rows] == [r["id"] for r in rows]
    changed = {r["id"].partition(":")[0] for r, p in zip(rows, plain_rows) if r != p}
    assert changed == {"f05", "f17", "f36", "f40", "f45"}
    assert hypotheses["f36"] == "Berlin city hosted the 1936 Olympics."
    assert hypotheses["f45"] == "50 People attended the meeting."


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


_WHAT_DID_LIZ_BUY = """# sent_id = {id}
# text = What did Liz buy?
1\tWhat\twhat\tPRON\tWP\t_\t4\tobj\t_\t_
2\tdid\tdo\tAUX\tVBD\t_\t4\taux\t_\t_
3\tLiz\tLiz\tPROPN\tNNP\t_\t4\tnsubj\t_\t_
4\t{form}\t{lemma}\tVERB\tVB\t_\t0\troot\t_\t_
5\t?\t?\tPUNCT\t.\t_\t4\tpunct\t_\t_
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(("form", "lemma"), [("buy", " "), (" ", "_")], ids=["lemma", "form"])
def test_a_blank_verb_under_do_support_is_a_transform_skip(
    tmp_path, capsys, forks, many_cpus, form, lemma, jobs
):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        "".join(
            json.dumps({"id": i, "question": "What did Liz buy?", "passage": "p", "answer": "milk"})
            + "\n" for i in "ab"
        ),
        encoding="utf-8",
    )
    parses = tmp_path / "parses.conllu"
    parses.write_text(
        _WHAT_DID_LIZ_BUY.format(id="a", form=form, lemma=lemma) + "\n"
        + _WHAT_DID_LIZ_BUY.format(id="b", form="buy", lemma="buy"),
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    argv = ["qa2d", "--qa", str(qa), "--parses", str(parses), "--jobs", jobs]
    assert main([*argv, "--output", str(out)]) == 0
    skip = {"id": "a", "stage": "transform", "reason": "blank verb ' ' under do-support"}
    assert capsys.readouterr().err == (
        json.dumps(skip) + "\nqa2nli: 1 declaratives written, 1 skipped\n"
    )
    assert [(row["id"], row["declarative"]) for row in _rows(out)] == [("b", "Liz bought milk.")]
    assert len(forks) == int(jobs) - 1


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
    # iter_rewrites realizes a batch of examples whole before it yields the
    # batch's pairs; each pair must still reach the writer before any answer
    # of the next batch is realized, not after every answer is
    monkeypatch.setattr(nli, "_BATCH", 4)
    realized = []
    realize = QuestionPlan.realize

    def counting_realize(plan, answer):
        candidates = realize(plan, answer)
        realized.append(len(candidates))
        return candidates

    realized_before_pair = []  # (example index, answers realized when its pair came)
    write_pairs = cli.write_pairs
    position = {ex.id: i for i, ex in enumerate(load_qa_jsonl(MC_QA, "multichoice"))}

    def watching_write_pairs(pairs, out):
        def watched():
            for pair in pairs:
                realized_before_pair.append((position[pair.id.split(":")[0]], len(realized)))
                yield pair
        return write_pairs(watched(), out)

    monkeypatch.setattr(QuestionPlan, "realize", counting_realize)
    monkeypatch.setattr(cli, "write_pairs", watching_write_pairs)
    assert _convert(tmp_path / "pairs.jsonl", "--negatives", "all") == 0
    assert realized == [1] * 80  # rank 1 only, 4 answers for each of 20 examples
    assert len(realized_before_pair) == 80
    # each pair comes after the 4 answers of each of the 4 examples of its
    # batch and of every earlier batch are realized, and before any later one
    for example, answers in realized_before_pair:
        assert answers == 4 * 4 * (example // 4 + 1), (example, answers)
    assert realized_before_pair[0][1] < 80  # the pairs are not collected first


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
def test_input_error_leaves_no_output(tmp_path, capsys, forks, many_cpus, command, bad):
    """Both row commands read and check all input before they open the output.
    An error in the QA file stops them before they fork a worker. At --jobs 2
    an error in the CoNLL-U file may be met by the workers that parse its
    slices; the run then writes the stderr of --jobs 1 byte for byte, and
    leaves no output file, no live worker and no temporary file."""
    which, tail = _BAD_INPUTS[bad]
    qa, parses = (QA, PARSES) if command == "qa2d" else (MC_QA, MC_PARSES)
    files = {name: Path(path).read_bytes().rstrip() + b"\n\n"
             for name, path in (("qa", qa), ("parses", parses))}
    files[which] = files[which] * 2 if tail is None else files[which] + tail
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = ["qa2d"] if command == "qa2d" else ["convert", "--schema", "multichoice"]
    out = tmp_path / "out.jsonl"
    errors = []
    for jobs in ("1", "2"):
        assert main([*argv, "--qa", str(tmp_path / "qa"), "--parses", str(tmp_path / "parses"),
                     "--output", str(out), "--jobs", jobs]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
        assert list(Path(tempfile.gettempdir()).iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if which == "qa":
            assert not forks
    assert errors[0].startswith(f"qa2nli: error: {tmp_path / which}: ")
    assert errors[1] == errors[0]


# command -> argv; each fixture name stands for that input file
_BOM_RUNS = {
    "qa2d": ["qa2d", "--qa", "qa2d_fixtures.jsonl", "--parses", "qa2d_fixtures.conllu",
             "--alternatives", "3"],
    "convert": ["convert", "--qa", "multichoice_20.jsonl", "--parses", "multichoice_20.conllu",
                "--schema", "multichoice"],
    "eval": ["eval", "--hypotheses", "scoring_hypotheses.jsonl",
             "--references", "scoring_references.jsonl"],
    "analyze": ["analyze", "--pairs", "scoring_pairs.jsonl"],
}


@pytest.mark.parametrize("command", list(_BOM_RUNS))
def test_a_byte_order_mark_changes_no_output(tmp_path, capsys, command):
    """Every input file that starts with a UTF-8 byte-order mark gives the
    bytes it gives without one."""
    runs = {}
    for prefix in (b"", b"\xef\xbb\xbf"):
        folder = tmp_path / ("bom" if prefix else "plain")
        folder.mkdir()
        argv = list(_BOM_RUNS[command])
        for i, arg in enumerate(argv):
            if (_FIXTURES / arg).is_file():
                (folder / arg).write_bytes(prefix + (_FIXTURES / arg).read_bytes())
                argv[i] = str(folder / arg)
        out = folder / "out"
        assert main([*argv, "--output", str(out)]) == 0
        runs[prefix] = (out.read_bytes(), capsys.readouterr())
    assert runs[b""][0]
    assert runs[b""] == runs[b"\xef\xbb\xbf"]


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


class _ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises
    BrokenPipeError, and fileno() is the write end of a real pipe."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return self._fd


def test_broken_pipe_points_stdout_at_the_null_device(monkeypatch, capsys):
    """In-process twin of test_closed_stdout_stops_quietly."""
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)  # a pipe with a writer left raises, not hangs
    opened = []
    real_open = os.open

    def recording_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(write_end))
    try:
        assert main(["qa2d", "--qa", QA, "--parses", PARSES]) == 1
        assert capsys.readouterr().err == ""
        assert os.read(read_end, 1) == b""  # EOF: write_end now names the null device
        assert len(opened) == 1
        with pytest.raises(OSError):  # the null device's own fd is not left open
            os.fstat(opened[0])
    finally:
        os.close(read_end)
        os.close(write_end)


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


# -- --jobs: forked workers ----------------------------------------------------


@pytest.fixture()
def forks(monkeypatch, tmp_path):
    """Every os.fork call of the test, counted; temporary files go to a fresh
    folder, which must be empty at the end, with no child process left."""
    assert threading.active_count() == 1  # beside another thread, --jobs forks nothing
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    temp = tmp_path / "tempdir"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    yield calls
    assert list(temp.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def many_cpus(monkeypatch):
    """Usable CPUs read as 64, so only --jobs and the examples cap the workers."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)


# name -> (schema, argv without input and output flags)
_JOBS_COMMANDS = {
    "qa2d": ("span", ["qa2d"]),
    "qa2d-alt3-copy": ("span", ["qa2d", "--alternatives", "3", "--copy-wh-phrase"]),
    "convert-multichoice-all": (
        "multichoice", ["convert", "--schema", "multichoice", "--negatives", "all"]),
    "convert-multichoice-one-random-seed3": (
        "multichoice",
        ["convert", "--schema", "multichoice", "--negatives", "one-random", "--seed", "3"]),
    "convert-span": ("span", ["convert", "--schema", "span"]),
    "convert-unanswerable": ("unanswerable", ["convert", "--schema", "unanswerable"]),
}
# schema -> (fixture QA, its parses, generated QA, its parses); the generated
# unanswerable corpus is made from the span one by _as_unanswerable
_JOBS_FILES = {
    "span": ("qa2d_fixtures.jsonl", "qa2d_fixtures.conllu",
             "gen_qa2d_long_100.jsonl", "gen_qa2d_long_100.conllu"),
    "multichoice": ("multichoice_20.jsonl", "multichoice_20.conllu",
                    "gen_convert_mc_200.jsonl", "gen_convert_mc_200.conllu"),
    "unanswerable": ("unanswerable_fixtures.jsonl", "qa2d_fixtures.conllu",
                     "gen_qa2d_long_100.jsonl", "gen_qa2d_long_100.conllu"),
}


def _as_unanswerable(i, row):
    """Every other item unanswerable; of those, every third has no plausible answer."""
    row = {**row, "answerable": i % 2 == 0}
    if i % 2:
        plausible = row.pop("answer")
        if i % 3:
            row["plausible_answer"] = plausible
    return row


def _jobs_inputs(folder, schema, kind):
    """The --qa and --parses files of one input kind, written into folder."""
    qa_name, parses_name, gen_qa_name, gen_parses_name = _JOBS_FILES[schema]
    lines = (_FIXTURES / qa_name).read_text(encoding="utf-8").splitlines(keepends=True)
    parses = (_FIXTURES / parses_name).read_text(encoding="utf-8")
    if kind == "generated":
        lines = (_FIXTURES / gen_qa_name).read_text(encoding="utf-8").splitlines(keepends=True)
        parses = (_FIXTURES / gen_parses_name).read_text(encoding="utf-8")
        if schema == "unanswerable":
            lines = [json.dumps(_as_unanswerable(i, json.loads(line))) + "\n"
                     for i, line in enumerate(lines)]
    elif kind == "few":  # fewer examples than workers
        lines = lines[:2]
    elif kind == "empty":
        lines = []
    elif kind == "all-skip":  # alternately a yes/no question and no parse at all
        ids = [json.loads(line)["id"] for line in lines]
        parses = "\n".join(_NON_WH_PARSE.replace("= nw", f"= {i}") for i in ids[::2])
    qa, parses_path = folder / "qa.jsonl", folder / "parses.conllu"
    qa.write_text("".join(lines), encoding="utf-8")
    parses_path.write_text(parses, encoding="utf-8")
    return qa, parses_path, len(lines)


def _outcome(argv, output, capsys):
    """(exit status, bytes written to the output, stdout, stderr) of one in-process run."""
    code = main([*argv, "--output", str(output)])
    stdout, stderr = capsys.readouterr()
    written = stdout.encode("utf-8") if output == "-" else output.read_bytes()
    return code, written, stdout, stderr


@pytest.mark.parametrize("kind", ["fixtures", "generated", "few", "empty", "all-skip"])
@pytest.mark.parametrize("command", list(_JOBS_COMMANDS))
def test_jobs_give_the_bytes_of_one_serial_pass(tmp_path, capsys, forks, many_cpus, command, kind):
    schema, head = _JOBS_COMMANDS[command]
    qa, parses, n = _jobs_inputs(tmp_path, schema, kind)
    argv = [*head, "--qa", str(qa), "--parses", str(parses)]
    for output in (tmp_path / "out.jsonl", "-"):
        serial = _outcome([*argv, "--jobs", "1"], output, capsys)
        assert serial[0] == 0 and not forks
        if kind == "all-skip":
            assert serial[1] == b"" and f", {n} skipped\n" in serial[3]
        for jobs in (2, 3, 4):
            assert _outcome([*argv, "--jobs", str(jobs)], output, capsys) == serial, jobs
            assert len(forks) == max(min(jobs, n) - 1, 0), jobs
            forks.clear()


def test_jobs_without_fork_is_one_serial_pass(monkeypatch, tmp_path, capsys, many_cpus):
    output = tmp_path / "out.jsonl"
    argv = ["qa2d", "--qa", QA, "--parses", PARSES, "--alternatives", "3"]
    serial = _outcome(argv, output, capsys)
    monkeypatch.delattr(os, "fork")
    assert _outcome([*argv, "--jobs", "4"], output, capsys) == serial


@pytest.fixture()
def loads(monkeypatch):
    """What this process parses: "whole" for each serial load of a CoNLL-U
    file, (start, stop) for each byte range."""
    calls = []
    load = cli.load_conllu

    def counted(path, *byte_range):
        calls.append(byte_range or "whole")
        return load(path, *byte_range)

    monkeypatch.setattr(cli, "load_conllu", counted)
    return calls


# (fixture QA, its parses, argv head), each QA file in the order of its parses
_IN_ORDER = {
    "qa2d-fixtures": ("qa2d_fixtures.jsonl", "qa2d_fixtures.conllu", ["qa2d"]),
    "multichoice-fixtures": ("multichoice_20.jsonl", "multichoice_20.conllu",
                             ["convert", "--schema", "multichoice"]),
    "gen-qa2d-long": ("gen_qa2d_long_100.jsonl", "gen_qa2d_long_100.conllu",
                      ["qa2d", "--alternatives", "3", "--copy-wh-phrase"]),
    "gen-convert-mc": ("gen_convert_mc_200.jsonl", "gen_convert_mc_200.conllu",
                       ["convert", "--schema", "multichoice", "--negatives", "all"]),
}


@pytest.mark.parametrize("corpus", list(_IN_ORDER))
def test_each_process_parses_only_its_own_slice(
    tmp_path, capsys, forks, many_cpus, loads, corpus
):
    """With the parses in QA order, this process never loads the whole
    CoNLL-U file: it parses the first byte range and each worker the next."""
    qa, parses, head = _IN_ORDER[corpus]
    argv = [*head, "--qa", str(_FIXTURES / qa), "--parses", str(_FIXTURES / parses)]
    output = tmp_path / "out.jsonl"
    serial = _outcome([*argv, "--jobs", "1"], output, capsys)
    assert serial[0] == 0 and loads == ["whole"]
    for jobs in (2, 3, 4):
        loads.clear()
        assert _outcome([*argv, "--jobs", str(jobs)], output, capsys) == serial, jobs
        assert len(forks) == jobs - 1, jobs
        assert len(loads) == 1 and loads[0][0] == 0 and 0 < loads[0][1], (jobs, loads)
        forks.clear()


def _blocks(name):
    """The sentences of a fixture CoNLL-U file, each without its blank line."""
    return (_FIXTURES / name).read_text(encoding="utf-8").strip("\n").split("\n\n")


def _joined(blocks):
    return "".join(block + "\n\n" for block in blocks)


def _renamed(block, sent_id):
    return re.sub("(?m)^# sent_id = .*$", f"# sent_id = {sent_id}", block)


def _at_cuts(blocks):
    """The places of the sentences that open a byte range at --jobs 2, 3 and 4."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "parses.conllu")
        Path(path).write_text(_joined(blocks), encoding="utf-8")
        ids = [re.search("(?m)^# sent_id = (.*)$", block)[1] for block in blocks]
        return sorted({ids.index(sent_id)
                       for n in (2, 3, 4) for _, sent_id in conllu.sentence_starts(path, n)})


def _at_each_cut(blocks, change):
    """blocks with change(block, k) in place of the block at each cut k."""
    cuts = _at_cuts(blocks)
    return [block for k, one in enumerate(blocks)
            for block in (change(one, k) if k in cuts else [one])]


_BAD_COMMENT = "# café comment\n"
_BAD_BYTE = _BAD_COMMENT.encode("latin-1")

# name -> (QA lines, sentence blocks) -> (QA lines, CoNLL-U bytes); and whether
# the parses are loaded in slices ("slices"), serially after the cut or the
# slices fail ("serial"), serially with nothing forked, as the sent_id at a
# cut cannot be read ("unforked"), or either of the first two, depending on
# where the cuts fall (None)
_SLICED_CASES = {
    "in-order": (lambda qa, blocks: (qa, _joined(blocks).encode()), "slices"),
    "qa-reversed": (lambda qa, blocks: (qa[::-1], _joined(blocks).encode()), "serial"),
    "duplicate-first-and-last": (
        lambda qa, blocks: (qa, _joined([*blocks[:-1], _renamed(blocks[-1], "q000000")]).encode()),
        "serial"),
    "duplicate-without-example-first-and-last": (
        lambda qa, blocks: (
            qa, _joined([_renamed(blocks[0], "zz"), *blocks, _renamed(blocks[1], "zz")]).encode()),
        "serial"),
    "duplicate-before-each-cut": (
        lambda qa, blocks: (qa, _joined(_at_each_cut(blocks, lambda b, k: [b, b])).encode()),
        "serial"),
    "duplicate-without-example-around-each-cut": (
        lambda qa, blocks: (qa, _joined(_at_each_cut(
            blocks, lambda b, k: [_renamed(b, f"zz{k}"), _renamed(b, f"zz{k}")])).encode()),
        "serial"),
    "squeezed-sent-id": (
        lambda qa, blocks: (qa, _joined(blocks).replace("# sent_id = ", "#sent_id=").encode()),
        "slices"),
    "crlf": (lambda qa, blocks: (qa, _joined(blocks).replace("\n", "\r\n").encode()), "slices"),
    "byte-order-mark": (lambda qa, blocks: (qa, ("\ufeff" + _joined(blocks)).encode()), "slices"),
    "cr-only": (lambda qa, blocks: (qa, _joined(blocks).replace("\n", "\r").encode()), "serial"),
    "bad-byte-in-last-slice": (
        lambda qa, blocks: (qa, _joined(blocks[:-1]).encode() + _BAD_BYTE
                            + _joined(blocks[-1:]).encode()),
        "serial"),
    "bad-byte-opening-each-cut": (
        lambda qa, blocks: (qa, _joined(_at_each_cut(blocks, lambda b, k: [_BAD_COMMENT + b]))
                            .encode().replace(_BAD_COMMENT.encode(), _BAD_BYTE)),
        "unforked"),
    "not-a-tree-in-last-slice": (
        lambda qa, blocks: (qa, (_joined(blocks) + _conllu((1, "a", 2), (2, "b", 1))).encode()),
        "serial"),
    "malformed-row-in-last-slice": (
        lambda qa, blocks: (qa, (_joined(blocks) + "# sent_id = zz\n1\tWho\n").encode()),
        "serial"),
    "no-sent-ids": (
        lambda qa, blocks: (qa, re.sub("(?m)^# sent_id = .*\n", "", _joined(blocks)).encode()),
        "serial"),
    "every-seventh-without-sent-id": (
        lambda qa, blocks: (qa, _joined(
            [re.sub("(?m)^# sent_id = .*\n", "", b) if k % 7 == 3 else b
             for k, b in enumerate(blocks)]).encode()),
        None),
    "parses-without-example": (
        lambda qa, blocks: ([line for k, line in enumerate(qa) if k % 3], _joined(blocks).encode()),
        None),
    "no-parse-at-each-cut": (
        lambda qa, blocks: (qa, _joined(_at_each_cut(blocks, lambda b, k: [])).encode()),
        None),
}


@pytest.mark.parametrize("case", list(_SLICED_CASES))
def test_sliced_loads_give_the_bytes_of_one_serial_pass(
    tmp_path, capsys, forks, many_cpus, loads, case
):
    make, loaded = _SLICED_CASES[case]
    qa_lines = (_FIXTURES / "gen_qa2d_long_100.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    qa_lines, data = make(qa_lines, _blocks("gen_qa2d_long_100.conllu"))
    qa, parses = tmp_path / "qa.jsonl", tmp_path / "parses.conllu"
    qa.write_text("".join(qa_lines), encoding="utf-8")
    parses.write_bytes(data)
    argv = ["qa2d", "--qa", str(qa), "--parses", str(parses)]
    output = tmp_path / "out.jsonl"

    def outcome(jobs):
        """As _outcome, with None written where the run leaves no output file."""
        code = main([*argv, "--jobs", str(jobs), "--output", str(output)])
        written = output.read_bytes() if output.exists() else None
        output.unlink(missing_ok=True)
        return code, written, *capsys.readouterr()

    serial = outcome(1)
    for jobs in (2, 3, 4):
        loads.clear()
        assert outcome(jobs) == serial, jobs
        if loaded == "slices":
            assert "whole" not in loads and len(forks) == jobs - 1, (jobs, loads)
        elif loaded == "serial":
            assert loads[-1] == "whole", jobs
        elif loaded == "unforked":
            assert loads == ["whole"] and not forks, (jobs, loads)
        assert list(Path(tempfile.gettempdir()).iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        forks.clear()
    bad_line = data[: data.find(_BAD_BYTE)].count(b"\n") + 1
    errors = {"bad-byte-in-last-slice": f": line {bad_line}: not valid UTF-8\n",
              "bad-byte-opening-each-cut": f": line {bad_line}: not valid UTF-8\n",
              "not-a-tree-in-last-slice": ": sentence 'q1': expected exactly one root",
              "malformed-row-in-last-slice": ": expected 10 tab-separated columns, got 2\n"}
    if case in errors or case.startswith("duplicate"):
        assert serial[:3] == (2, None, "") and serial[3].startswith(f"qa2nli: error: {parses}")
        assert errors.get(case, ": duplicate sent_id") in serial[3]
    else:
        assert serial[0] == 0 and serial[1] is not None


def test_no_parse_crosses_between_processes(
    monkeypatch, tmp_path, capsys, forks, many_cpus, loads
):
    def refuse(self):
        raise AssertionError("a parse was pickled")

    monkeypatch.setattr(conllu.DepSentence, "__reduce__", refuse)
    with pytest.raises(AssertionError, match="a parse was pickled"):
        pickle.dumps(load_conllu(PARSES)[0])
    for argv in (["qa2d", "--qa", QA, "--parses", PARSES, "--alternatives", "3"],
                 ["convert", "--qa", MC_QA, "--parses", MC_PARSES, "--schema", "multichoice"]):
        output = tmp_path / "out.jsonl"
        serial = _outcome([*argv, "--jobs", "1"], output, capsys)
        loads.clear()
        assert _outcome([*argv, "--jobs", "3"], output, capsys) == serial
        assert "whole" not in loads and len(forks) == 2
        forks.clear()


def test_a_named_pipe_of_parses_is_read_once(tmp_path, capsys, forks, many_cpus, loads):
    """A pipe cannot be cut into byte ranges: its parses are loaded serially,
    and nothing reads the pipe before that load."""
    fifo = tmp_path / "parses.fifo"
    os.mkfifo(fifo)
    output = tmp_path / "out.jsonl"
    argv = ["qa2d", "--qa", QA, "--parses", str(fifo)]
    outcomes = []

    def waited_too_long(signum, frame):  # a read that used up the pipe's data
        raise TimeoutError("no writer left for the pipe")

    previous = signal.signal(signal.SIGALRM, waited_too_long)
    try:
        for jobs in ("1", "3"):
            with subprocess.Popen([sys.executable, "-c", _FEED, PARSES, str(fifo)]) as writer:
                signal.alarm(30)
                try:
                    outcomes.append(_outcome([*argv, "--jobs", jobs], output, capsys))
                except BaseException:
                    writer.kill()  # it may still wait for a reader
                    raise
                finally:
                    signal.alarm(0)
                assert writer.wait(timeout=30) == 0
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes[0][0] == 0 and outcomes[1] == outcomes[0]
    assert loads == ["whole", "whole"] and len(forks) == 2


# Copies the file named first into the named pipe named second.
_FEED = "import sys\nopen(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())\n"


def test_jobs_beside_another_thread_is_one_serial_pass(monkeypatch, tmp_path, capsys, many_cpus):
    output = tmp_path / "out.jsonl"
    argv = ["qa2d", "--qa", QA, "--parses", PARSES, "--alternatives", "3"]
    serial = _outcome(argv, output, capsys)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _outcome([*argv, "--jobs", "4"], output, capsys) == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_jobs_are_capped_at_the_usable_cpus(tmp_path, capsys, forks):
    """A typo such as --jobs 1000 starts one worker per usable CPU at most."""
    output = tmp_path / "out.jsonl"
    serial = _outcome(["qa2d", "--qa", QA, "--parses", PARSES], output, capsys)
    assert _outcome(["qa2d", "--qa", QA, "--parses", PARSES, "--jobs", "1000"],
                    output, capsys) == serial
    assert len(forks) == min(52, cli._usable_cpus()) - 1


def test_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def _in_workers(monkeypatch, in_parent, in_worker):
    """Wrap cli.write_declaratives: in this process it first calls
    in_parent(example id), in a forked worker in_worker(example id)."""
    parent = os.getpid()
    write = cli.write_declaratives

    def wrapped(out, example_id, candidates):
        (in_parent if os.getpid() == parent else in_worker)(example_id)
        return write(out, example_id, candidates)

    monkeypatch.setattr(cli, "write_declaratives", wrapped)


def _nothing(example_id):
    pass


_STALLED = []  # each worker's own copy


def _stall(example_id):
    """A worker still running when the run ends: it stalls for 10 s at its
    first row."""
    if not _STALLED:
        _STALLED.append(example_id)
        time.sleep(10)


def _raise_at_f52(example_id):
    if example_id == "f52":
        raise RuntimeError("worker fault")


def _killed_at_f52(example_id):
    if example_id == "f52":
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    ("fault", "status"), [(_raise_at_f52, "1"), (_killed_at_f52, "-9")], ids=["raises", "killed"]
)
def test_a_failed_worker_fails_the_run(
    monkeypatch, tmp_path, capsys, forks, many_cpus, fault, status
):
    """f52, the last fixture, is in the second worker's slice of three."""
    _in_workers(monkeypatch, _nothing, fault)
    argv = ["qa2d", "--qa", QA, "--parses", PARSES, "--jobs", "3"]
    assert main([*argv, "--output", str(tmp_path / "out.jsonl")]) == 2
    assert re.fullmatch(
        rf"qa2nli: error: worker 2 \(pid \d+\) exited with status {status}\n",
        capsys.readouterr().err,
    )
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch, tmp_path, forks, many_cpus):
    def interrupt(example_id):
        raise KeyboardInterrupt

    _in_workers(monkeypatch, interrupt, _stall)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["qa2d", "--qa", QA, "--parses", PARSES, "--jobs", "3",
              "--output", str(tmp_path / "out.jsonl")])
    assert time.monotonic() - start < 5
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _PipeClosedOnWrite(_ClosedPipe):
    """A stdout whose reader has gone, with nothing buffered: flush() succeeds
    until something is written, as on a real pipe."""

    def flush(self):
        pass


def test_a_closed_pipe_kills_and_reaps_every_worker(monkeypatch, capsys, forks, many_cpus):
    _in_workers(monkeypatch, _nothing, _stall)
    read_end, write_end = os.pipe()
    monkeypatch.setattr(sys, "stdout", _PipeClosedOnWrite(write_end))
    start = time.monotonic()
    try:
        assert main(["qa2d", "--qa", QA, "--parses", PARSES, "--jobs", "3"]) == 1
    finally:
        os.close(read_end)
        os.close(write_end)
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == ""
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# name -> (the encoding of stdout, what replaces the "." that ends the last
# passage of multichoice_20); U+2028 and U+0085 end a line for str.splitlines
# but not in a JSON row, and latin-1 can encode U+0085
_UNENCODABLE = {
    "ascii": ("ascii", " Caf\u00e9."),
    "ascii-line-separator-first": ("ascii", "\u2028 Caf\u00e9."),
    "latin-1-next-line-first": ("latin-1", "\x85 Caf\u20ac."),
}


@pytest.mark.parametrize("case", list(_UNENCODABLE))
def test_an_output_that_cannot_encode_a_row_fails_at_the_row_of_jobs_1(
    monkeypatch, tmp_path, capsys, forks, many_cpus, case
):
    """The last example, in the last slice, holds a character stdout cannot
    encode: every --jobs writes the rows before its first row and fails with
    the error of --jobs 1."""
    encoding, ending = _UNENCODABLE[case]
    lines = Path(MC_QA).read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    last["passage"] = last["passage"].removesuffix(".") + ending
    qa = tmp_path / "qa.jsonl"
    qa.write_text("\n".join([*lines[:-1], json.dumps(last, ensure_ascii=False)]) + "\n",
                  encoding="utf-8")
    argv = ["convert", "--schema", "multichoice", "--qa", str(qa), "--parses", MC_PARSES]

    def outcome(jobs):
        written = io.BytesIO()
        stdout = io.TextIOWrapper(written, encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main([*argv, "--jobs", str(jobs), "--output", "-"])
        stdout.flush()
        return code, written.getvalue(), capsys.readouterr().err

    serial = outcome(1)
    assert serial[0] == 2 and serial[1].count(b"\n") == 76  # 4 rows an example
    assert serial[2].startswith(f"qa2nli: error: '{encoding}' codec can't encode character")
    for jobs in (2, 3):
        assert outcome(jobs) == serial, jobs
        assert len(forks) == jobs - 1, jobs
        forks.clear()


def _waited_too_long(signum, frame):
    raise TimeoutError("the processes deadlocked")


def test_a_report_and_a_result_past_the_pipe_buffer_pass_while_the_processes_overlap(
    tmp_path, forks
):
    """The worker's report and its result each pickle to more than a pipe
    holds (64 KiB on Linux), and its work waits for this process's own: the
    report must be read before this process runs its slice, and the result
    before the worker is reaped, or the run deadlocks."""
    parent = os.getpid()
    go_r, go_w = os.pipe()
    orphans = [f"orphan-{k:05d}" for k in range(20_000)]
    worker_skips = [nli.SkipRecord(f"q{k:04d}", "transform", "no rule") for k in range(5_000)]
    assert min(len(pickle.dumps(orphans)), len(pickle.dumps((3, worker_skips)))) > 1 << 16

    def load(i):
        return [f"row {i}.{k}" for k in range(3)], orphans if i else ["orphan-of-slice-0"]

    def work(part, out, skips):
        if os.getpid() == parent:
            os.write(go_w, b"+")
        else:
            assert os.read(go_r, 1) == b"+"
            skips += worker_skips
        out.writelines(row + "\n" for row in part)
        return len(part)

    output = tmp_path / "out.txt"
    previous = signal.signal(signal.SIGALRM, _waited_too_long)
    signal.alarm(30)
    try:
        done = cli._forked(work, 2, load, str(output))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(go_r)
        os.close(go_w)
    assert done == (6, worker_skips) and len(forks) == 1
    assert output.read_text(encoding="utf-8") == "".join(
        f"row {i}.{k}\n" for i in (0, 1) for k in range(3))


def _half_a_pickle(obj, file):
    """pickle.dump that writes the first half of the pickle and ends the process."""
    data = pickle.dumps(obj)
    file.write(data[: len(data) // 2])
    file.flush()
    os._exit(0)


@pytest.mark.parametrize("end", ["in-load", "in-report"])
def test_a_worker_that_ends_before_its_report_is_complete_fails_the_load(
    monkeypatch, tmp_path, forks, end
):
    def load(i):
        if i and end == "in-load":
            os._exit(0)
        return [f"row {i}"], [f"orphan-{i}.{k}" for k in range(100)]

    def work(part, out, skips):
        out.writelines(row + "\n" for row in part)
        return len(part)

    if end == "in-report":
        monkeypatch.setattr(pickle, "dump", _half_a_pickle)
    output = tmp_path / "out.txt"
    assert cli._forked(work, 2, load, str(output)) is None
    assert not output.exists() and len(forks) == 1


def test_cli_import_loads_none_of_the_worker_modules(tmp_path, child_env):
    """--jobs N > 1 imports its temporary-file, serialization and signal
    modules only when it forks, so neither importing the CLI nor a run of one
    slice (--jobs 1, or --jobs 4 on one example) pays for them. Only modules
    added after start-up count: site may load tempfile."""
    one = tmp_path / "one.jsonl"
    one.write_text(Path(QA).read_text(encoding="utf-8").splitlines(keepends=True)[0],
                   encoding="utf-8")
    runs = [
        ["qa2d", "--qa", QA, "--parses", PARSES, "--jobs", "1", "--output", str(tmp_path / "1")],
        ["qa2d", "--qa", str(one), "--parses", PARSES, "--jobs", "4",
         "--output", str(tmp_path / "4")],
    ]
    script = (
        "import sys\nbefore = set(sys.modules)\nimport qa2nli.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "for argv in sys.argv[1:]:\n"
        "    assert qa2nli.cli.main(argv.split('\\n')) == 0\n"
        "    print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *("\n".join(argv) for argv in runs)],
        capture_output=True, text=True, encoding="utf-8", env=child_env, check=True,
    )
    at_import, *after_runs = (set(line.split()) for line in proc.stdout.splitlines())
    assert "qa2nli.cli" in at_import and len(after_runs) == len(runs)
    assert (tmp_path / "1").read_bytes() == (_FIXTURES / "golden/qa2d_fixtures.jsonl").read_bytes()
    assert (tmp_path / "4").read_text(encoding="utf-8").count("\n") == 1
    worker_modules = {"pickle", "signal", "tempfile"}
    for loaded in (at_import, *after_runs):
        assert not loaded & worker_modules, loaded & worker_modules
