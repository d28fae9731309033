"""Matching and BLEU scoring for declarative rewrites against references.

All comparison happens on normalized text: lowercased, punctuation removed,
whitespace collapsed. Corpus BLEU is the standard unsmoothed 4-gram score
(so one missing n-gram order zeroes it); sentence BLEU is add-1 smoothed
with the order capped at the hypothesis length, which keeps "exact match
implies 100" true for short sentences. Both are reported on a 0-100 scale.

Both scores are functions of per-sentence counts (lengths plus clipped and
total n-grams), and corpus BLEU is the score of their sum. So the
whole-file, per-breakdown-row and top-k corpus BLEU of `evaluate` are sums
of per-candidate counts, not re-scored text, and a candidate is counted only
if a score reads it: rank 1 always, a later rank only while no earlier one
is an exact match. An exact match's counts follow from its length, so only
a candidate that matches no reference has its 1- to 4-grams counted (in one
pass), and only then are its item's references counted, once for all its
candidates.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Sequence

from .conllu import read_jsonl, require_key
from .errors import DatasetError

__all__ = [
    "EvalRecord",
    "EvalReport",
    "bleu_corpus",
    "evaluate",
    "exact_match",
    "length_bucket",
    "load_eval_records",
    "normalize",
    "sentence_bleu",
    "topk_match",
]

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
LENGTH_BUCKETS = ("1-9", "10-19", "20-29", "30+")


def normalize(text: str) -> str:
    """Lowercase, drop punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


def exact_match(hypothesis: str, references: Sequence[str]) -> bool:
    hyp = normalize(hypothesis)
    return any(hyp == normalize(ref) for ref in references)


def _grams(tokens: Sequence[str]) -> Counter:
    """Counts of the 1- to 4-grams of tokens, in one Counter: a gram's order is its length."""
    return Counter(chain.from_iterable(zip(*[tokens[i:] for i in range(n)]) for n in range(1, 5)))


def _counts(hyp: Sequence[str], refs: Sequence[Sequence[str]], maxima: dict | None) -> tuple:
    """BLEU counts: hypothesis length, closest reference length, clipped
    n-grams for n = 1..4, then total n-grams for n = 1..4.

    maxima None means hyp is one of refs, so nothing is counted: a length-L
    hypothesis has max(L - n + 1, 0) n-grams of order n, each clipped to
    itself, and its closest reference length is L. Otherwise n-grams are
    clipped by maxima, and reference length ties go to the shorter one; with
    no references that length is infinite, so any score summing these counts
    is 0."""
    hyp_len = len(hyp)
    totals = [max(hyp_len - n, 0) for n in range(4)]
    if maxima is None:
        return (hyp_len, hyp_len, *totals, *totals)
    ref_len = min(map(len, refs), key=lambda rl: (abs(rl - hyp_len), rl), default=math.inf)
    clipped = [0, 0, 0, 0]
    for gram, count in _grams(hyp).items():
        clipped[len(gram) - 1] += min(count, maxima.get(gram, 0))
    return (hyp_len, ref_len, *clipped, *totals)


def _bleu(counts: Sequence[float], smooth: bool = False) -> float:
    """BLEU, 0-100, of one count tuple or a sum of them: unsmoothed corpus
    BLEU-4, or add-1 smoothed with the order capped at the hypothesis length."""
    hyp_len, ref_len = counts[0], counts[1]
    if hyp_len == 0:
        return 0.0
    n_max = min(4, hyp_len) if smooth else 4
    add = 1 if smooth else 0
    log_precision = 0.0
    for n in range(n_max):
        clipped, total = counts[2 + n] + add, counts[6 + n] + add
        if clipped == 0:
            return 0.0
        log_precision += math.log(clipped / total) / n_max
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def _summed(counts: Sequence[Sequence[float]]) -> list[float]:
    return [sum(column) for column in zip(*counts)]


def bleu_corpus(hypotheses: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """Corpus-level BLEU-4, unsmoothed, 0-100.

    references[i] is the list of acceptable sentences for hypotheses[i].
    Empty input or any empty reference list scores 0.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    if not hypotheses:
        return 0.0
    return _bleu(_summed(_picks([h], refs)[0][1] for h, refs in zip(hypotheses, references)))


def sentence_bleu(hypothesis: str, references: Sequence[str]) -> float:
    """Sentence-level BLEU with add-1 smoothing, 0-100.

    The maximum n-gram order is min(4, hypothesis length), so an exact
    match always scores 100 no matter how short the sentence is.
    """
    return _bleu(_picks([hypothesis], references)[0][1], smooth=True)


def _picks(candidates: Sequence[str], references: Sequence[str]) -> tuple[tuple, tuple]:
    """(exact match, BLEU counts) of the rank-1 candidate and of the best one:
    the first exact match, else the highest sentence BLEU (ties keep the
    lower rank). Only what a score reads is counted: no candidate after the
    first exact match is tokenized, an exact match's counts follow from its
    length, and the references' n-grams (the max count of each over them)
    are counted once, and only if rank 1 is not an exact match."""
    refs = [normalize(r).split() for r in references]
    scored = []
    for hyp in (normalize(c).split() for c in candidates):
        if hyp in refs:
            exact = (True, _counts(hyp, refs, None))
            return (scored[0] if scored else exact), exact
        if not scored:  # rank 1 is not an exact match
            maxima = {}
            for grams in map(_grams, refs):
                maxima.update({gram: c for gram, c in grams.items() if c > maxima.get(gram, 0)})
        scored.append((False, _counts(hyp, refs, maxima)))
    return scored[0], max(scored, key=lambda item: _bleu(item[1], smooth=True))


def _rates(scored: Sequence[tuple[bool, tuple]]) -> tuple[float, float]:
    """(exact-match rate in percent, corpus BLEU) of one scored candidate per item."""
    matched = sum(exact for exact, _ in scored)
    return 100.0 * matched / len(scored), _bleu(_summed(counts for _, counts in scored))


def topk_match(
    candidate_groups: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
) -> tuple[float, float]:
    """Score each item by its best candidate.

    The best candidate is the lowest-ranked exact match if any, otherwise
    the candidate with the highest sentence BLEU (ties keep the lower
    rank). Returns (exact-match rate in percent, corpus BLEU of the best
    candidates).
    """
    if len(candidate_groups) != len(references):
        raise ValueError("candidate and reference counts differ")
    if not candidate_groups:
        return 0.0, 0.0
    best = []
    for cands, refs in zip(candidate_groups, references):
        if not cands:
            raise ValueError("empty candidate group")
        best.append(_picks(cands, refs)[1])
    return _rates(best)


def length_bucket(n: int) -> str:
    if n < 10:
        return "1-9"
    if n < 20:
        return "10-19"
    if n < 30:
        return "20-29"
    return "30+"


class EvalRecord(NamedTuple):
    """One item to score: ranked candidates plus references.

    qtype and qa_length (question plus answer token count) are optional
    grouping keys for the breakdown tables.
    """

    id: str
    candidates: tuple[str, ...]
    references: tuple[str, ...]
    qtype: str | None = None
    qa_length: int | None = None


class EvalReport(NamedTuple):
    n: int
    k: int
    exact: float
    bleu: float
    topk_exact: float
    topk_bleu: float
    by_qtype: dict
    by_length: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "exact_match": self.exact,
            "bleu": self.bleu,
            "topk_exact_match": self.topk_exact,
            "topk_bleu": self.topk_bleu,
            "by_question_type": self.by_qtype,
            "by_qa_length": self.by_length,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def to_text(self) -> str:
        lines = [
            f"items            {self.n}",
            f"exact match      {self.exact:.2f}%",
            f"corpus BLEU      {self.bleu:.2f}",
            f"top-{self.k} match      {self.topk_exact:.2f}%",
            f"top-{self.k} BLEU       {self.topk_bleu:.2f}",
        ]
        for title, table in (
            ("by question type:", self.by_qtype),
            ("by question+answer length:", self.by_length),
        ):
            if table:
                lines.append(title)
            for key, row in table.items():
                lines.append(
                    f"  {key:<6} n={row['n']:<4} exact={row['exact_match']:.2f}% "
                    f"bleu={row['bleu']:.2f}"
                )
        return "\n".join(lines)


def _row(rank1: Sequence[tuple[bool, tuple]]) -> dict:
    exact, bleu = _rates(rank1)
    return {"n": len(rank1), "exact_match": exact, "bleu": bleu}


def evaluate(records: Sequence[EvalRecord], k: int | None = None) -> EvalReport:
    """Aggregate scores over records.

    Rank-1 candidates drive exact match and corpus BLEU; the top-k scores
    consider the first k candidates per item (all of them when k is None).
    Records missing qtype or qa_length are left out of the corresponding
    breakdown. A candidate is counted only if a score reads it, at most
    once; every row sums those counts.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    if not records:
        return EvalReport(0, k or 0, 0.0, 0.0, 0.0, 0.0, {}, {})
    for record in records:
        if not record.candidates:
            raise ValueError(f"record {record.id!r} has no candidates")
    depth = k if k is not None else max(len(r.candidates) for r in records)

    rank1, best = zip(*(_picks(r.candidates[:depth], r.references) for r in records))
    overall = _row(rank1)
    topk_exact, topk_bleu = _rates(best)

    by_qtype: dict = {}
    for qtype in sorted({r.qtype for r in records if r.qtype is not None}):
        by_qtype[qtype] = _row([s for r, s in zip(records, rank1) if r.qtype == qtype])

    by_length: dict = {}
    buckets = [None if r.qa_length is None else length_bucket(r.qa_length) for r in records]
    for bucket in LENGTH_BUCKETS:
        group = [s for b, s in zip(buckets, rank1) if b == bucket]
        if group:
            by_length[bucket] = _row(group)

    return EvalReport(
        n=len(records),
        k=depth,
        exact=overall["exact_match"],
        bleu=overall["bleu"],
        topk_exact=topk_exact,
        topk_bleu=topk_bleu,
        by_qtype=by_qtype,
        by_length=by_length,
    )


def _load_references(path: str) -> dict[str, tuple[tuple[str, ...], str | None, int | None]]:
    """id -> (references, qtype, qa_length), from a references JSONL file."""
    references: dict[str, tuple] = {}
    for line_no, obj in read_jsonl(path):
        ref_id = require_key(obj, "id", str, line_no, path)
        refs = require_key(obj, "references", list, line_no, path)
        if not refs or not all(isinstance(r, str) for r in refs):
            raise DatasetError("'references' must be a non-empty list of strings", line_no, path)
        if ref_id in references:
            raise DatasetError(f"duplicate id {ref_id!r}", line_no, path)
        qtype = obj.get("qtype")
        qa_length = obj.get("qa_length")
        if qtype is not None and not isinstance(qtype, str):
            raise DatasetError("'qtype' must be a string", line_no, path)
        if qa_length is not None and (isinstance(qa_length, bool) or not isinstance(qa_length, int)):
            raise DatasetError("'qa_length' must be an int", line_no, path)
        if qa_length is not None and qa_length < 1:
            raise DatasetError(f"'qa_length' must be >= 1, got {qa_length}", line_no, path)
        references[ref_id] = (tuple(refs), qtype, qa_length)
    return references


def load_eval_records(hypotheses_path: str, references_path: str) -> list[EvalRecord]:
    """Read qa2d output and its references into records for evaluate.

    References are JSON lines {id, references: [str, ...], qtype?, qa_length?}
    with unique ids and any qa_length an int >= 1. Hypotheses are JSON lines
    {id, declarative, rank}; the lines of one id are its candidates, ordered
    by rank (ties keep file order). Records come in order of each id's first
    hypothesis line; references with no hypotheses are left out.

    Raises:
        DatasetError: malformed line, missing/mistyped key, a qa_length
            below 1, duplicate reference id, or a hypothesis id with no
            reference entry, with the path and the offending line number.
    """
    references = _load_references(references_path)
    path = hypotheses_path
    candidates: dict[str, list[tuple[int, str]]] = {}
    for line_no, obj in read_jsonl(path):
        hyp_id = require_key(obj, "id", str, line_no, path)
        text = require_key(obj, "declarative", str, line_no, path)
        rank = require_key(obj, "rank", int, line_no, path)
        if hyp_id not in references:
            raise DatasetError(f"id {hyp_id!r} has no reference entry", line_no, path)
        candidates.setdefault(hyp_id, []).append((rank, text))
    by_rank = itemgetter(0)
    return [
        EvalRecord(hyp_id, tuple(t for _, t in sorted(ranked, key=by_rank)), *references[hyp_id])
        for hyp_id, ranked in candidates.items()
    ]
