"""Dataset artifact probes: giveaway words, length skew, passage overlap.

A converted corpus is only useful if the label cannot be read off the
hypothesis alone. These helpers quantify the usual leaks: per-class PMI of
hypothesis words (smoothed so rare words do not dominate), hypothesis
length distributions per label, and lexical overlap between a hypothesis
and its premise.

All counts are document-level: a word occurring three times in one
hypothesis counts once. Text is normalized the same way as in metrics.
analyze_corpus runs all three on a converted corpus file, as the analyze
command does.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter, defaultdict
from typing import Iterable, NamedTuple

from .conllu import read_jsonl, require_key
from .errors import DatasetError
from .metrics import normalize

__all__ = [
    "CorpusReport",
    "LengthStats",
    "PmiEntry",
    "PmiTable",
    "analyze_corpus",
    "length_histogram",
    "pmi",
    "word_overlap",
]


class PmiEntry(NamedTuple):
    word: str
    pmi: float
    count: int  # documents of the class containing the word
    percent: float  # count / class size * 100


class PmiTable(NamedTuple):
    classes: dict  # label -> tuple[PmiEntry, ...], strongest first
    k: float
    vocabulary_size: int

    def rows(self) -> list[tuple[str, int, str, float, int, float]]:
        out = []
        for label in sorted(self.classes):
            for rank, entry in enumerate(self.classes[label], start=1):
                out.append((label, rank, entry.word, entry.pmi, entry.count, entry.percent))
        return out

    def to_text(self) -> str:
        lines = [f"PMI (k={self.k:g}, vocabulary={self.vocabulary_size})"]
        for label in sorted(self.classes):
            lines.append(f"  {label}:")
            for rank, entry in enumerate(self.classes[label], start=1):
                lines.append(
                    f"    {rank}. {entry.word:<15} pmi={entry.pmi:+.4f} "
                    f"count={entry.count} ({entry.percent:.1f}%)"
                )
        return "\n".join(lines)


def pmi(
    items: Iterable[tuple[str, str]], k: float = 100.0, top_n: int = 5
) -> PmiTable:
    """Smoothed pointwise mutual information between words and labels.

    items are (text, label) pairs; occurrence is per document (0/1). For a
    word w and class c out of |C| classes, with N documents of which N_c
    carry label c:

        pmi_k(w, c) = ln( (count(w,c) + k) * N / ((count(w) + k*|C|) * N_c) )

    With k=0 this is plain document-level PMI, exactly invariant under
    duplicating the whole corpus; the default k=100 pulls rare-word
    estimates toward independence (duplication then strengthens values, as
    smoothing weighs less against the larger counts). Per class, only words
    actually occurring in that class are ranked, by (pmi desc, count desc,
    word asc), top_n kept.

    Raises:
        ValueError: fewer than two distinct labels, no items, k < 0 or
            not finite, or top_n < 1.
    """
    return _pmi(((normalize(text).split(), label) for text, label in items), k, top_n)


def _pmi(docs: Iterable[tuple[list[str], str]], k: float, top_n: int) -> PmiTable:
    """pmi of (normalized words, label) pairs."""
    if not (k >= 0 and math.isfinite(k)):  # also rejects NaN
        raise ValueError(f"k must be >= 0 and finite, got {k}")
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    class_sizes: Counter = Counter()
    word_class: defaultdict[str, Counter] = defaultdict(Counter)
    word_total: Counter = Counter()
    for words, label in docs:
        label = str(label)
        class_sizes[label] += 1
        words = set(words)
        word_total.update(words)
        word_class[label].update(words)
    if not class_sizes:
        raise ValueError("no items")
    if len(class_sizes) < 2:
        raise ValueError("need at least two distinct labels for PMI")

    n_docs, n_classes = sum(class_sizes.values()), len(class_sizes)
    classes: dict = {}
    for label, size in class_sizes.items():
        scored = []
        for word, count in word_class[label].items():
            value = math.log(
                ((count + k) * n_docs) / ((word_total[word] + k * n_classes) * size)
            )
            scored.append(PmiEntry(word, value, count, 100.0 * count / size))
        scored.sort(key=lambda e: (-e.pmi, -e.count, e.word))
        classes[label] = tuple(scored[:top_n])
    return PmiTable(classes=classes, k=k, vocabulary_size=len(word_total))


class LengthStats(NamedTuple):
    counts: dict  # token length -> number of documents
    mean: float
    median: float


def length_histogram(items: Iterable[tuple[str, str]]) -> dict:
    """Token-length distribution of texts per label.

    Returns {label: LengthStats}; length is the normalized token count.

    Raises:
        ValueError: no items.
    """
    return _length_histogram((normalize(text).split(), label) for text, label in items)


def _length_histogram(docs: Iterable[tuple[list[str], str]]) -> dict:
    """length_histogram of (normalized words, label) pairs."""
    lengths: dict[str, list[int]] = {}
    for words, label in docs:
        lengths.setdefault(str(label), []).append(len(words))
    if not lengths:
        raise ValueError("no items")
    out: dict = {}
    for label, values in lengths.items():
        values.sort()  # so counts come in increasing length
        mid = len(values) // 2
        out[label] = LengthStats(
            counts=dict(Counter(values)),
            mean=sum(values) / len(values),
            median=(values[mid] + values[~mid]) / 2,
        )
    return out


def word_overlap(question: str, passage: str) -> float:
    """Percentage of distinct question words that also occur in the passage.

    Both sides are normalized; comparison is on word types.

    Raises:
        ValueError: the question has no words after normalization.
    """
    return _word_overlap(normalize(question).split(), set(normalize(passage).split()))


def _word_overlap(words: list[str], p_types: set[str]) -> float:
    """word_overlap of normalized question words and a passage's word set."""
    q_types = set(words)
    if not q_types:
        raise ValueError("question has no content words")
    return 100.0 * len(q_types & p_types) / len(q_types)


class CorpusReport(NamedTuple):
    """The probes analyze_corpus runs on one corpus."""

    table: PmiTable
    lengths: dict  # label -> LengthStats
    overlap: dict | None  # label -> mean hypothesis-premise word overlap, percent

    def to_text(self) -> str:
        lines = [self.table.to_text(), "hypothesis length by label:"]
        for label, stats in sorted(self.lengths.items()):
            lines.append(
                f"  {label}: mean={stats.mean:.2f} median={stats.median:.1f} "
                f"histogram={stats.counts}"
            )
        if self.overlap is not None:
            lines.append("hypothesis-premise word overlap by label:")
            for label, mean in sorted(self.overlap.items()):
                lines.append(f"  {label}: mean={mean:.2f}%")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The PMI table as CSV rows (label, rank, word, pmi, count, percent)."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["label", "rank", "word", "pmi", "count", "percent"])
        for label, rank, word, value, count, percent in self.table.rows():
            writer.writerow([label, rank, word, f"{value:.6f}", count, f"{percent:.2f}"])
        return out.getvalue()


def analyze_corpus(
    path: str, k: float = 100.0, top_n: int = 5, *, overlap: bool = True
) -> CorpusReport:
    """Probe an NLI corpus file (convert output) for label giveaways.

    Each JSON line needs a string premise, hypothesis and label; other keys
    are ignored. The report holds the pmi table (smoothing k, top_n words
    per label), the length_histogram of the hypotheses and, unless overlap
    is False, each label's mean word_overlap of hypothesis and premise.
    Each hypothesis is normalized once, and each distinct premise once:
    convert writes a passage as the premise of every pair of its question.

    Raises:
        DatasetError: a malformed line or a missing or mistyped key, no
            pairs, fewer than two labels, or, when overlap is computed, a
            hypothesis with no words, with the path and the line number
            where there is one.
    """
    docs: list[tuple[list[str], str]] = []
    rows: list[tuple[int, str]] = []
    for line_no, obj in read_jsonl(path):
        rows.append((line_no, require_key(obj, "premise", str, line_no, path)))
        words = normalize(require_key(obj, "hypothesis", str, line_no, path)).split()
        docs.append((words, require_key(obj, "label", str, line_no, path)))
    if not docs:
        raise DatasetError("no pairs", path=path)
    try:
        table = _pmi(docs, k, top_n)
    except ValueError as exc:  # fewer than two labels
        raise DatasetError(str(exc), path=path) from exc
    means = None
    if overlap:
        overlaps: dict[str, list[float]] = {}
        premise_types = {p: set(normalize(p).split()) for p in {p for _, p in rows}}
        for (words, label), (line_no, premise) in zip(docs, rows):
            try:
                value = _word_overlap(words, premise_types[premise])
            except ValueError as exc:
                raise DatasetError("hypothesis has no words", line_no, path) from exc
            overlaps.setdefault(label, []).append(value)
        means = {label: sum(values) / len(values) for label, values in overlaps.items()}
    return CorpusReport(table, _length_histogram(docs), means)
