"""PMI giveaway detection, length histograms, and overlap probes."""

import json
import math
import random
import statistics
from pathlib import Path

import pytest

import oracles
from qa2nli.artifacts import analyze_corpus, length_histogram, pmi, word_overlap
from qa2nli.errors import DatasetError
from qa2nli.nli import Label

# Six tiny documents over two labels; small enough to verify by hand.
ITEMS = oracles.PMI_ITEMS


def test_pmi_unsmoothed_values():
    table = pmi(ITEMS, k=0.0, top_n=5)
    e = {entry.word: entry.pmi for entry in table.classes["e"]}
    # ln( count(w,c) * N / (count(w) * N_c) ), N=6, N_c=3
    assert e["barked"] == pytest.approx(math.log(2), abs=1e-12)
    assert e["slept"] == pytest.approx(math.log(2), abs=1e-12)
    assert e["dog"] == pytest.approx(math.log(4 / 3), abs=1e-12)
    assert e["cat"] == pytest.approx(0.0, abs=1e-12)


def test_pmi_ranking_with_count_tiebreak():
    table = pmi(ITEMS, k=0.0, top_n=5)
    # equal pmi: higher document count first; equal count: alphabetical
    assert [entry.word for entry in table.classes["e"]] == ["slept", "barked", "dog", "the", "cat"]
    assert [entry.word for entry in table.classes["n"]] == ["flew", "bird", "a", "cat", "dog"]


def test_pmi_counts_and_percent():
    table = pmi(ITEMS, k=0.0, top_n=5)
    slept = table.classes["e"][0]
    assert (slept.count, slept.percent) == (2, pytest.approx(100.0 * 2 / 3))
    assert table.vocabulary_size == 8


def test_pmi_matches_oracle():
    for k in (0.0, 1.0, 100.0):
        expected = oracles.oracle_pmi(ITEMS, k=k)
        table = pmi(ITEMS, k=k, top_n=50)
        for label, entries in table.classes.items():
            for entry in entries:
                assert entry.pmi == expected[label][entry.word], (label, entry.word, k)


def test_pmi_unsmoothed_invariant_under_corpus_duplication():
    base = pmi(ITEMS, k=0.0, top_n=5)
    scaled = pmi(ITEMS * 10, k=0.0, top_n=5)
    for label in base.classes:
        assert [e.word for e in base.classes[label]] == [e.word for e in scaled.classes[label]]
        for b, s in zip(base.classes[label], scaled.classes[label]):
            assert s.pmi == b.pmi  # exact: every term in the ratio scales
            assert s.count == 10 * b.count
            assert s.percent == pytest.approx(b.percent)


def test_pmi_smoothed_is_not_duplication_invariant():
    # With k>0 the smoothing constant stays fixed while counts grow, so
    # association strengths drift toward their unsmoothed values.
    base = {e.word: e.pmi for e in pmi(ITEMS, k=100.0, top_n=5).classes["e"]}
    scaled = {e.word: e.pmi for e in pmi(ITEMS * 10, k=100.0, top_n=5).classes["e"]}
    assert scaled["slept"] > base["slept"] > 0.0


def test_pmi_smoothing_shrinks_rare_words():
    raw = {e.word: e.pmi for e in pmi(ITEMS, k=0.0, top_n=8).classes["e"]}
    smooth = {e.word: e.pmi for e in pmi(ITEMS, k=100.0, top_n=8).classes["e"]}
    assert smooth["barked"] < raw["barked"]
    assert abs(smooth["barked"]) < 0.01  # pulled almost to independence


def test_pmi_accepts_label_enums():
    items = [("liz won", Label.ENTAILED), ("tom lost", Label.NOT_ENTAILED)]
    table = pmi(items, k=1.0, top_n=2)
    assert set(table.classes) == {"entailed", "not_entailed"}


def test_pmi_only_ranks_words_present_in_class():
    table = pmi(ITEMS, k=100.0, top_n=50)
    assert all(e.count > 0 for entries in table.classes.values() for e in entries)
    assert "barked" not in {e.word for e in table.classes["n"]}


def test_pmi_validation():
    with pytest.raises(ValueError, match="k must be >= 0"):
        pmi(ITEMS, k=-1)
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="k must be >= 0 and finite"):
            pmi(ITEMS, k=k)
    with pytest.raises(ValueError, match="top_n must be >= 1"):
        pmi(ITEMS, top_n=0)
    with pytest.raises(ValueError, match="no items"):
        pmi([])
    with pytest.raises(ValueError, match="two distinct labels"):
        pmi([("a b", "e"), ("c d", "e")])


def test_pmi_table_rows_and_text():
    table = pmi(ITEMS, k=0.0, top_n=2)
    rows = table.rows()
    assert [row[:3] for row in rows] == [
        ("e", 1, "slept"), ("e", 2, "barked"), ("n", 1, "flew"), ("n", 2, "bird"),
    ]
    text = table.to_text()
    assert text.startswith("PMI (k=0, vocabulary=8)")
    assert "1. slept" in text


def test_length_histogram():
    items = [("one two three", "e"), ("one two", "e"), ("one", "n")]
    stats = length_histogram(items)
    assert stats["e"].counts == {2: 1, 3: 1}
    assert stats["e"].mean == pytest.approx(2.5)
    assert stats["e"].median == pytest.approx(2.5)
    assert stats["n"].counts == {1: 1}
    with pytest.raises(ValueError, match="no items"):
        length_histogram([])
    # mean and median equal the statistics module's, bit for bit, for odd and
    # even counts of unsorted lengths; counts come in increasing length
    rng = random.Random(113)
    for _ in range(200):
        lengths = [rng.randint(1, 40) for _ in range(rng.randint(1, 9))]
        stats = length_histogram([(" ".join("w" * n), "e") for n in lengths])["e"]
        assert stats.mean == statistics.fmean(lengths)
        assert stats.median == float(statistics.median(lengths))
        assert list(stats.counts) == sorted(set(lengths))


def test_word_overlap():
    assert word_overlap("Who called Taylor?", "Liz called Taylor yesterday.") == pytest.approx(
        100.0 * 2 / 3
    )
    assert word_overlap("a b", "c d") == 0.0
    assert word_overlap("Liz won.", "liz WON") == 100.0
    with pytest.raises(ValueError, match="no content words"):
        word_overlap("?!", "anything")


# -- the analyze report -------------------------------------------------------------


def test_analyze_corpus_runs_the_public_probes():
    path = Path(__file__).parent / "fixtures" / "scoring_pairs.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    items = [(row["hypothesis"], row["label"]) for row in rows]
    report = analyze_corpus(str(path), k=1.0, top_n=3)
    assert report.table == pmi(items, k=1.0, top_n=3)
    assert report.lengths == length_histogram(items)
    overlaps: dict[str, list[float]] = {}
    for row in rows:
        overlaps.setdefault(row["label"], []).append(
            word_overlap(row["hypothesis"], row["premise"])
        )
    assert report.overlap == {label: sum(v) / len(v) for label, v in overlaps.items()}
    without = analyze_corpus(str(path), k=1.0, top_n=3, overlap=False)
    assert without == report._replace(overlap=None)
    assert without.to_text() == report.to_text().split("\nhypothesis-premise")[0]
    assert report.to_csv().split("\r\n")[:2] == [
        "label,rank,word,pmi,count,percent",
        "entailed,1,{},{:.6f},{},{:.2f}".format(*report.table.rows()[0][2:]),
    ]


def test_analyze_corpus_checks_overlap_only_when_it_computes_it(tmp_path):
    path = tmp_path / "pairs.jsonl"
    rows = [
        {"premise": "Liz won.", "hypothesis": "Liz won.", "label": "entailed"},
        {"premise": "Liz won.", "hypothesis": "", "label": "not_entailed"},
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(DatasetError) as error:
        analyze_corpus(str(path))
    assert str(error.value) == f"{path}: line 2: hypothesis has no words"
    assert analyze_corpus(str(path), overlap=False).lengths["not_entailed"].counts == {0: 1}


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [({"k": -1}, "k must be >= 0 and finite, got -1"), ({"top_n": 0}, "top_n must be >= 1")],
    ids=["k", "top_n"],
)
def test_analyze_corpus_blames_a_bad_argument_on_the_argument(tmp_path, kwargs, message):
    # the arguments are checked before the file is read, so neither a good
    # file nor a missing one is named in the error
    good = Path(__file__).parent / "fixtures" / "scoring_pairs.jsonl"
    for path in (good, tmp_path / "missing.jsonl"):
        with pytest.raises(ValueError) as error:
            analyze_corpus(str(path), **kwargs)
        assert type(error.value) is ValueError and str(error.value) == message
