"""Normalization, BLEU, top-k selection, and report aggregation.

The fixed expected values below were produced by tests/oracles.py, an
independent reimplementation; the seeded property tests compare the package
against the oracle on random corpora.
"""

import json
import random

import pytest

import oracles
from qa2nli.metrics import (
    EvalRecord,
    bleu_corpus,
    evaluate,
    exact_match,
    length_bucket,
    normalize,
    sentence_bleu,
    topk_match,
)


# -- normalization -----------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("The  CAT sat.", "the cat sat"),
        ("Liz's dog", "lizs dog"),
        ("  on   June 5, 1944!  ", "on june 5 1944"),
        ("...", ""),
    ],
)
def test_normalize(raw, expected):
    assert normalize(raw) == expected


def test_exact_match():
    assert exact_match("The war ended in 1945.", ["the war ended in 1945"])
    assert exact_match("A", ["b", "a"])
    assert not exact_match("The war ended.", ["The war ended in 1945."])


# -- BLEU against the oracle ------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("perfect", 100.0),
        ("degenerate", 0.0),
        ("partial_corpus", 61.869176588627425),
        ("short_hyp", 60.653065971263345),
        ("two_refs", 84.08964152537146),
    ],
)
def test_bleu_corpus_fixed_cases(name, expected):
    hyps, refs = oracles.BLEU_CASES[name]
    assert bleu_corpus(hyps, refs) == pytest.approx(expected, abs=1e-9)


def test_bleu_corpus_input_checks():
    with pytest.raises(ValueError, match="counts differ"):
        bleu_corpus(["a"], [])
    assert bleu_corpus([], []) == 0.0
    assert bleu_corpus(["a b c d"], [[]]) == 0.0  # empty reference list
    assert bleu_corpus([""], [["a b c d"]]) == 0.0  # empty hypothesis


def test_bleu_corpus_tie_goes_to_shorter_reference():
    # refs of lengths 3 and 5 are equally far from the 4-token hypothesis;
    # choosing 3 means no brevity penalty and a perfect score.
    score = bleu_corpus(["a b c d"], [["a b c", "a b c d e"]])
    assert score == pytest.approx(100.0, abs=1e-9)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("exact_short", 100.0),
        ("near_miss", 71.18034480382984),
    ],
)
def test_sentence_bleu_fixed_cases(name, expected):
    hyp, refs = oracles.SENT_CASES[name]
    assert sentence_bleu(hyp, refs) == pytest.approx(expected, abs=1e-9)


def test_sentence_bleu_edge_cases():
    assert sentence_bleu("", ["a"]) == 0.0
    assert sentence_bleu("a", []) == 0.0
    # one-token miss: order capped at 1, add-1 smoothing gives (0+1)/(1+1)
    assert sentence_bleu("paris", ["london"]) == pytest.approx(50.0, abs=1e-9)


_WORDS = ["the", "cat", "dog", "sat", "ran", "on", "mat", "rug", "fast", "slow"]

# (ranked candidates, references) that the counting shortcuts treat apart: an
# exact match is not n-gram-counted, a candidate after the first exact match
# is not read, and an item's references are counted only if rank 1 misses.
# The oracle tests below score these along with their random inputs.
_EDGE_GROUPS = [
    # first exact match at rank 3, after two misses; rank 3 is also one
    (["the cat", "a dog sat fast", "The cat sat.", "the cat sat"], ["the cat sat"]),
    # first exact match at rank 2, to one of references of different lengths
    (["the cat sat on a rug", "The cat sat on the mat!", "cat"],
     ["the cat", "the cat sat on the mat", "a cat sat on the rug now"]),
    # exact match at rank 1, to one of references of equal lengths
    (["A dog ran fast.", "the cat"], ["the cat sat", "a dog ran", "a dog ran fast"]),
    (["the cat sat", "the dog"], ["a dog ran", "the cat sat"]),
    # repeated n-grams: clips of 2 and 3 against references that repeat them
    (["the cat the cat the cat on", "the the the the"],
     ["the cat the cat on the mat", "on the the the cat"]),
    (["the cat the cat the cat", "the cat the cat"], ["the cat the cat the", "a cat"]),
    # a hypothesis that normalizes to nothing, before and after a miss
    (["...", "the cat"], ["the cat sat"]),
    (["the cat", "!?"], ["the cat sat"]),
    # a reference that normalizes to nothing; then both, an empty exact match
    (["the cat", "sat"], ["!!!", "the cat sat"]),
    (["...", "sat"], ["?", "the cat"]),
    # length 1 to 3 exact matches, where sentence BLEU caps its order
    (["Cat.", "cat sat"], ["cat", "the cat"]),
    (["dog ran", "cat sat"], ["the cat", "cat sat"]),
]


def test_bleu_matches_oracle_on_random_corpora():
    rng = random.Random(411)
    cases = []
    for cands, refs in _EDGE_GROUPS:
        cases.append((cands, [refs] * len(cands)))
        cases += [([cand], [refs]) for cand in cands]
    for _ in range(50):
        n = rng.randint(1, 6)
        hyps = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 12))) for _ in range(n)]
        refs = [
            [" ".join(rng.choices(_WORDS, k=rng.randint(1, 12)))
             for _ in range(rng.randint(1, 3))]
            for _ in range(n)
        ]
        cases.append((hyps, refs))
    for hyps, refs in cases:
        assert bleu_corpus(hyps, refs) == pytest.approx(
            oracles.oracle_corpus_bleu(hyps, refs), abs=1e-9
        )
        assert sentence_bleu(hyps[0], refs[0]) == pytest.approx(
            oracles.oracle_sentence_bleu(hyps[0], refs[0]), abs=1e-9
        )


# -- top-k ----------------------------------------------------------------


def test_topk_prefers_any_exact_match():
    rate, bleu = topk_match(
        [["the cat sat on mats", "The cat sat on the mat."]],
        [["the cat sat on the mat"]],
    )
    assert rate == 100.0
    assert bleu == pytest.approx(100.0, abs=1e-9)


def test_topk_falls_back_to_best_bleu():
    rate, _ = topk_match(
        [["completely different words here", "the cat sat on the red mat"]],
        [["the cat sat on the mat"]],
    )
    assert rate == 0.0


def test_topk_validation():
    with pytest.raises(ValueError, match="counts differ"):
        topk_match([["a"]], [])
    with pytest.raises(ValueError, match="empty candidate group"):
        topk_match([[]], [["a"]])
    assert topk_match([], []) == (0.0, 0.0)


def test_topk_rate_non_decreasing_in_k():
    rng = random.Random(202)
    for _ in range(100):
        refs = [[" ".join(rng.choices(_WORDS, k=rng.randint(2, 6)))] for _ in range(5)]
        groups = []
        for ref in refs:
            cands = [" ".join(rng.choices(_WORDS, k=rng.randint(2, 6))) for _ in range(4)]
            if rng.random() < 0.5:
                cands[rng.randrange(4)] = ref[0]
            groups.append(cands)
        rates = [topk_match([g[:k] for g in groups], refs)[0] for k in (1, 2, 3, 4)]
        assert rates == sorted(rates)


def test_topk_matches_oracle_on_random_groups():
    rng = random.Random(523)
    # every edge group under each cut: k = 1, 2, 3 and the whole list
    cases = [
        ([cands[:k] for cands, _ in _EDGE_GROUPS], [refs for _, refs in _EDGE_GROUPS])
        for k in (1, 2, 3, None)
    ]
    cases += [([cands[:k]], [refs]) for cands, refs in _EDGE_GROUPS for k in (1, 2, 3, None)]
    for _ in range(50):
        n = rng.randint(1, 6)
        refs = [
            [" ".join(rng.choices(_WORDS, k=rng.randint(1, 10)))
             for _ in range(rng.randint(1, 3))]
            for _ in range(n)
        ]
        groups = []
        for item_refs in refs:
            cands = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 10)))
                     for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.4:
                cands[rng.randrange(len(cands))] = rng.choice(item_refs).upper() + "."
            groups.append(cands)
        cases.append((groups, refs))
    for groups, refs in cases:
        rate, bleu = topk_match(groups, refs)
        want_rate, want_bleu = oracles.oracle_topk(groups, refs)
        assert rate == pytest.approx(want_rate, abs=1e-9)
        assert bleu == pytest.approx(want_bleu, abs=1e-9)


def test_topk_and_evaluate_score_empty_references_zero():
    assert topk_match([["a b c d", "e"]], [[]]) == (0.0, 0.0)
    records = [
        EvalRecord("r1", ("a b c d.",), ("A b c d",), qtype="Who", qa_length=4),
        EvalRecord("r2", ("a b c d.", "e"), (), qtype="What", qa_length=5),
    ]
    report = evaluate(records)
    assert (report.exact, report.bleu) == (50.0, 0.0)
    assert (report.topk_exact, report.topk_bleu) == (50.0, 0.0)
    assert report.by_qtype["Who"]["bleu"] == pytest.approx(100.0, abs=1e-9)
    assert report.by_qtype["What"] == {"n": 1, "exact_match": 0.0, "bleu": 0.0}
    assert report.by_length["1-9"]["bleu"] == 0.0


# -- buckets and reports ---------------------------------------------------


@pytest.mark.parametrize(
    "n, bucket",
    [(1, "1-9"), (9, "1-9"), (10, "10-19"), (19, "10-19"), (20, "20-29"), (29, "20-29"), (30, "30+"), (45, "30+")],
)
def test_length_bucket(n, bucket):
    assert length_bucket(n) == bucket


def _records():
    return [
        EvalRecord("r1", ("the war ended in 1945.", "the war ended."),
                   ("The war ended in 1945.",), qtype="When", qa_length=8),
        EvalRecord("r2", ("liz bought bread.", "Liz bought milk."),
                   ("Liz bought milk.",), qtype="What", qa_length=8),
        EvalRecord("r3", ("sam works at the UN",), ("Sam works at the UN.",),
                   qtype="Where", qa_length=25),
    ]


def test_evaluate_report():
    report = evaluate(_records())
    assert report.n == 3
    assert report.k == 2  # longest candidate list
    assert report.exact == pytest.approx(100.0 * 2 / 3)
    assert report.topk_exact == 100.0  # r2 recovers at rank 2
    assert set(report.by_qtype) == {"What", "When", "Where"}
    assert report.by_qtype["When"]["n"] == 1
    assert list(report.by_length) == ["1-9", "20-29"]
    assert report.by_length["1-9"]["n"] == 2


def test_evaluate_k1_equals_rank1_scores():
    report = evaluate(_records(), k=1)
    assert report.k == 1
    assert report.topk_exact == report.exact


def test_evaluate_breakdowns_skip_untagged_records():
    records = [
        EvalRecord("r1", ("a b.",), ("a b.",)),
        EvalRecord("r2", ("c d.",), ("c d.",), qtype="Who", qa_length=4),
    ]
    report = evaluate(records)
    assert list(report.by_qtype) == ["Who"]
    assert report.by_qtype["Who"]["n"] == 1
    assert list(report.by_length) == ["1-9"]


def test_evaluate_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluate(_records(), k=0)
    with pytest.raises(ValueError, match="no candidates"):
        evaluate([EvalRecord("r", (), ("a",))])


def test_evaluate_empty():
    report = evaluate([])
    assert (report.n, report.k, report.exact, report.bleu) == (0, 0, 0.0, 0.0)
    assert report.by_qtype == {} and report.by_length == {}


def test_report_serialization():
    report = evaluate(_records(), k=2)
    data = report.to_dict()
    assert list(data) == [
        "n", "k", "exact_match", "bleu", "topk_exact_match", "topk_bleu",
        "by_question_type", "by_qa_length",
    ]
    text = report.to_text()
    assert "items            3" in text
    assert "top-2 match" in text
    assert "by question type:" in text
    assert json.loads(report.to_json())["n"] == 3


def test_evaluate_scores_match_oracle_on_random_records():
    rng = random.Random(617)
    edge = [
        EvalRecord(f"e{i}", tuple(cands), tuple(refs), qtype="Who" if i % 2 else "What",
                   qa_length=5 * i)
        for i, (cands, refs) in enumerate(_EDGE_GROUPS)
    ]
    batches = [(edge, k) for k in (None, 1, 2, 3)]
    for _ in range(30):
        records = []
        for i in range(rng.randint(1, 12)):
            refs = tuple(
                " ".join(rng.choices(_WORDS, k=rng.randint(1, 10)))
                for _ in range(rng.randint(1, 3))
            )
            cands = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 10)))
                     for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.4:
                cands[rng.randrange(len(cands))] = rng.choice(refs).capitalize() + "."
            records.append(EvalRecord(
                f"r{i}", tuple(cands), refs,
                qtype=rng.choice(["Who", "What", "When", None]),
                qa_length=rng.choice([None, rng.randint(1, 40)]),
            ))
        batches.append((records, rng.choice([None, 1, 2, 3])))
    for records, k in batches:
        report = evaluate(records, k=k)

        def oracle_row(group):
            hyps = [r.candidates[0] for r in group]
            refs = [list(r.references) for r in group]
            exact, _ = oracles.oracle_topk([[h] for h in hyps], refs)
            return exact, oracles.oracle_corpus_bleu(hyps, refs)

        rows = [((report.exact, report.bleu), oracle_row(records))]
        for qtype, row in report.by_qtype.items():
            group = [r for r in records if r.qtype == qtype]
            rows.append(((row["exact_match"], row["bleu"]), oracle_row(group)))
        for bucket, row in report.by_length.items():
            group = [r for r in records
                     if r.qa_length is not None and length_bucket(r.qa_length) == bucket]
            rows.append(((row["exact_match"], row["bleu"]), oracle_row(group)))
        assert sum(row["n"] for row in report.by_qtype.values()) == sum(
            r.qtype is not None for r in records
        )
        assert sum(row["n"] for row in report.by_length.values()) == sum(
            r.qa_length is not None for r in records
        )
        depth = report.k
        rows.append((
            (report.topk_exact, report.topk_bleu),
            oracles.oracle_topk(
                [r.candidates[:depth] for r in records], [r.references for r in records]
            ),
        ))
        for got, want in rows:
            assert got == pytest.approx(want, abs=1e-9)
