"""Acceptance suite: one test per shipping criterion.

Each test asserts the criterion at its stated tolerance and ends by printing
a single PASS line with the measured numbers (shown with -rA or on failure),
so the -v output doubles as the acceptance report.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import synth
from qa2nli.analysis import QuestionType, analyze
from qa2nli.artifacts import pmi
from qa2nli.engine import EngineConfig, transform
from qa2nli.metrics import bleu_corpus, exact_match, normalize, topk_match
from qa2nli.morphology import reinflect
from qa2nli.nli import Label, Provenance, build_pairs, write_nli_jsonl

_FIXTURES = Path(__file__).parent / "fixtures"

# Worked examples the corpus must keep covering, whatever else changes.
_ANCHOR_QUESTIONS = {
    "Who called Taylor?",
    "When was Madonna born?",
    "Where is someone overlooked?",
    "What is an example of a corporate sponsor of a basketball team?",
    "When did Johnson crash into the wall?",
    "Where was the baby found?",
    "Who asks who to hit them outside of the bar?",
    "What surprising fact do the guys learn about Jones?",
    "What file format are iPod games distributed in?",
}

NEGATION_WORDS = {"no", "never", "nobody", "nothing", "none"}


def test_criterion_1_fixture_fidelity(qa2d_rows, qa2d_parses):
    assert len(qa2d_rows) >= 40
    questions = {row["question"] for row in qa2d_rows}
    missing = _ANCHOR_QUESTIONS - questions
    assert not missing, f"anchor examples missing from corpus: {missing}"

    core = [row for row in qa2d_rows if row["core"]]
    assert len(core) >= 10
    core_analyses = {row["id"]: analyze(qa2d_parses[row["id"]]) for row in core}
    # one of each question type, plus the do-support and copular shapes
    assert {a.qtype for a in core_analyses.values()} == set(QuestionType)
    assert any(
        a.aux and (qa2d_parses[fid].token(a.aux).lemma == "do")
        for fid, a in core_analyses.items()
    )
    assert any(a.copula for a in core_analyses.values())

    started = time.perf_counter()
    matched = core_matched = 0
    for row in qa2d_rows:
        candidate = transform(analyze(qa2d_parses[row["id"]]), row["answer"])[0]
        ok = normalize(candidate.text) in {normalize(g) for g in row["gold"]}
        matched += ok
        core_matched += ok and row["core"]
    elapsed = time.perf_counter() - started

    assert core_matched == len(core), "every core fixture must match its gold exactly"
    assert matched / len(qa2d_rows) >= 0.60
    assert elapsed < 5.0
    print(
        f"criterion 1 fixture fidelity: PASS - core {core_matched}/{len(core)}, "
        f"full {matched}/{len(qa2d_rows)} ({100 * matched / len(qa2d_rows):.1f}%), "
        f"{elapsed:.2f}s"
    )


def test_criterion_2_do_support_round_trip(qa2d_rows, qa2d_parses):
    checked = violations = 0
    for row in qa2d_rows:
        sent = qa2d_parses[row["id"]]
        analysis = analyze(sent)
        if analysis.aux is None:
            continue
        aux = sent.token(analysis.aux)
        if aux.lemma != "do":
            continue
        checked += 1
        root = sent.token(analysis.root)
        expected_verb = reinflect(root.lemma or root.form, aux.form)
        tokens = [t.lower() for t in transform(analysis, row["answer"])[0].tokens]
        if expected_verb not in tokens or aux.form.lower() in tokens:
            violations += 1
    assert checked >= 5, "corpus must exercise do-support"
    assert violations == 0
    # the canonical example, spelled out
    war = next(row for row in qa2d_rows if row["question"] == "When did the war end?")
    text = transform(analyze(qa2d_parses[war["id"]]), war["answer"])[0].text
    assert "ended" in text and "did" not in text.lower()
    print(f"criterion 2 do-support round trip: PASS - {checked} fixtures, 0 violations")


def test_criterion_3_engine_invariants(qa2d_rows, qa2d_parses):
    vocab = [
        "Liz", "Taylor", "Paris", "milk", "the", "a", "red", "old", "garden",
        "museum", "river", "1958", "Monday", "quietly", "teacher", "bridge",
    ]
    rng = random.Random(20260816)
    analyses = {row["id"]: analyze(qa2d_parses[row["id"]]) for row in qa2d_rows}

    def check(fid, answer):
        analysis = analyses[fid]
        candidate = transform(analysis, answer)[0]
        out_norm = set(normalize(candidate.text).split())
        missing = set(normalize(answer).split()) - out_norm
        assert not missing, f"{fid}: answer tokens {missing} lost for {answer!r}"
        wh_form = analyses[fid].question.token(analysis.wh_token).form.lower()
        in_count = sum(1 for t in analysis.question.tokens if t.form.lower() == wh_form)
        out_count = [t.lower() for t in candidate.tokens].count(wh_form)
        assert out_count <= in_count - 1, f"{fid}: fronted {wh_form!r} not removed"
        assert candidate.text.endswith(".")
        first_alpha = next((ch for ch in candidate.text if ch.isalpha()), None)
        assert first_alpha is None or first_alpha.isupper(), f"{fid}: {candidate.text!r}"
        assert transform(analysis, answer) == transform(analysis, answer)

    started = time.perf_counter()
    for row in qa2d_rows:
        check(row["id"], row["answer"])
    fids = [row["id"] for row in qa2d_rows]
    for _ in range(500):
        answer = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        check(rng.choice(fids), answer)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"criterion 3 engine invariants: PASS - {len(qa2d_rows)} fixtures + 500 "
        f"random substitutions, 0 violations, {elapsed:.2f}s"
    )


def test_criterion_4_metric_oracles():
    # frozen hand-checked corpus BLEU values (see tests/oracles.py)
    expected = {
        "perfect": 100.0,
        "degenerate": 0.0,
        "partial_corpus": 61.869176588627425,
        "short_hyp": 60.653065971263345,
        "two_refs": 84.08964152537146,
    }
    for name, value in expected.items():
        hyps, refs = oracles.BLEU_CASES[name]
        assert abs(bleu_corpus(hyps, refs) - value) < 1e-4, name
        assert abs(oracles.oracle_corpus_bleu(hyps, refs) - value) < 1e-4, name

    assert exact_match("The war ended in 1945.", ["the war ended in 1945"])
    assert exact_match("  Liz   called Taylor!  ", ["liz called taylor."])
    assert not exact_match("The war ended", ["the war ended in 1945"])

    words = ["the", "cat", "dog", "sat", "ran", "on", "mat", "rug"]
    rng = random.Random(1936)
    for _ in range(1000):
        refs = [[" ".join(rng.choices(words, k=rng.randint(2, 6)))] for _ in range(3)]
        groups = []
        for ref in refs:
            cands = [" ".join(rng.choices(words, k=rng.randint(2, 6))) for _ in range(4)]
            if rng.random() < 0.4:
                cands[rng.randrange(4)] = ref[0]
            groups.append(cands)
        rates = [topk_match([g[:k] for g in groups], refs)[0] for k in (1, 2, 3, 4)]
        assert rates == sorted(rates), "top-k match rate must not decrease with k"
    print("criterion 4 metric oracles: PASS - 5 BLEU values, exact-match cases, 1000 monotonicity trials")


def test_criterion_5_label_soundness(multichoice_examples, tmp_path):
    all_pairs = build_pairs(multichoice_examples, negatives="all")
    assert len(all_pairs.pairs) == 80 and not all_pairs.skips
    sampled = build_pairs(multichoice_examples, negatives="one-random", seed=7)
    assert len(sampled.pairs) == 40 and not sampled.skips

    for result in (all_pairs, sampled):
        for pair in result.pairs:
            if pair.label is Label.ENTAILED:
                assert pair.provenance is Provenance.CORRECT_ANSWER
            else:
                assert pair.provenance is Provenance.INCORRECT_OPTION

    first, second = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    write_nli_jsonl(build_pairs(multichoice_examples, negatives="one-random", seed=7).pairs, first)
    write_nli_jsonl(build_pairs(multichoice_examples, negatives="one-random", seed=7).pairs, second)
    assert first.read_bytes() == second.read_bytes()
    print("criterion 5 label soundness: PASS - 80/40 pairs, labels match provenance 100%, seed-7 reruns byte-identical")


def _assert_pmi_matches_oracle(items):
    table = pmi(items, k=0.0, top_n=10_000)
    expected = oracles.oracle_pmi(items, k=0.0)
    compared = 0
    for label, entries in table.classes.items():
        assert {e.word for e in entries} == set(expected[label])
        for entry in entries:
            assert entry.pmi == expected[label][entry.word], (label, entry.word)
            compared += 1
    return compared


def test_criterion_6_pmi_oracle(multichoice_examples):
    toy_compared = _assert_pmi_matches_oracle(oracles.PMI_ITEMS)

    examples = synth.corpus(250)
    result = build_pairs(examples, negatives="all")
    assert len(result.pairs) == 1000 and not result.skips
    items = [(pair.hypothesis, str(pair.label)) for pair in result.pairs]
    compared = _assert_pmi_matches_oracle(items)

    base = pmi(items, k=0.0, top_n=10_000)
    scaled = pmi(items * 10, k=0.0, top_n=10_000)
    for label in base.classes:
        assert [e.word for e in base.classes[label]] == [e.word for e in scaled.classes[label]]
        assert [e.pmi for e in base.classes[label]] == [e.pmi for e in scaled.classes[label]]
    print(
        f"criterion 6 pmi oracle: PASS - toy corpus ({toy_compared} entries) and "
        f"1000-pair corpus ({compared} entries) exact, x10 scaling invariant"
    )


def test_criterion_7_no_negation_giveaways(multichoice_examples):
    result = build_pairs(multichoice_examples, negatives="all")
    items = [(pair.hypothesis, str(pair.label)) for pair in result.pairs]
    table = pmi(items)  # default smoothing, top 5
    top = [entry.word for entry in table.classes["not_entailed"]]
    leaked = set(top) & NEGATION_WORDS
    assert not leaked, f"negation words predict the label: {leaked}"
    print(f"criterion 7 negation giveaways: PASS - not_entailed top-5 {top} is negation-free")


def test_criterion_8_end_to_end_pipeline(tmp_path, qa2d_rows, child_env):
    qa = _FIXTURES / "qa2d_fixtures.jsonl"
    parses = _FIXTURES / "qa2d_fixtures.conllu"
    mc_qa = _FIXTURES / "multichoice_20.jsonl"
    mc_parses = _FIXTURES / "multichoice_20.conllu"
    refs = tmp_path / "references.jsonl"
    with open(refs, "w", encoding="utf-8") as fh:
        for row in qa2d_rows:
            fh.write(
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
    declaratives = tmp_path / "declaratives.jsonl"
    pairs = tmp_path / "pairs.jsonl"
    report = tmp_path / "report.json"
    giveaways = tmp_path / "giveaways.csv"

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "qa2nli", *argv], capture_output=True, text=True,
            encoding="utf-8", env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    started = time.perf_counter()
    run("qa2d", "--qa", str(qa), "--parses", str(parses), "--alternatives", "2",
        "--output", str(declaratives))
    run("convert", "--qa", str(mc_qa), "--parses", str(mc_parses),
        "--schema", "multichoice", "--output", str(pairs))
    run("eval", "--hypotheses", str(declaratives), "--references", str(refs),
        "--format", "json", "--output", str(report))
    run("analyze", "--pairs", str(pairs), "--format", "csv", "--output", str(giveaways))
    elapsed = time.perf_counter() - started

    decl_rows = [json.loads(l) for l in declaratives.read_text(encoding="utf-8").splitlines()]
    assert {r["id"] for r in decl_rows} == {row["id"] for row in qa2d_rows}
    assert all(
        set(r) == {"id", "declarative", "rank", "applied_rules"} and r["rank"] >= 1
        for r in decl_rows
    )
    pair_rows = [json.loads(l) for l in pairs.read_text(encoding="utf-8").splitlines()]
    assert len(pair_rows) == 80
    assert all(
        list(r) == ["id", "premise", "hypothesis", "label", "provenance"]
        for r in pair_rows
    )
    scored = json.loads(report.read_text(encoding="utf-8"))
    assert scored["n"] == len(qa2d_rows)
    assert scored["exact_match"] >= 60.0
    header, *table_rows = giveaways.read_text(encoding="utf-8").splitlines()
    assert header == "label,rank,word,pmi,count,percent"
    assert len(table_rows) == 10  # two labels, top five each

    assert elapsed < 60.0
    print(
        f"criterion 8 end-to-end pipeline: PASS - qa2d/convert/eval/analyze exit 0, "
        f"schema-valid outputs, {elapsed:.2f}s"
    )
