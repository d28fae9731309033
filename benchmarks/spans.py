"""In-process span tracing around calls into the qa2nli modules.

Nothing under src/ is instrumented. While `traced()` is active, each public
function listed in TRACED is replaced, in every qa2nli module namespace that
holds it, by a wrapper that records a span; leaving the block restores the
originals. Spans live in memory as lists
[name, start_ns, end_ns, parent index, item id, raised, value] and are
written out once, at the end of the run. Tracing is single-threaded: run
the traced CLI commands with --jobs 1.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
import time
from typing import Callable


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, item=None, value=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, item(args) if item else None, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[6] = value(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "item", "raised", "value")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _sent_id(args):
    return args[0].sent_id


def _first_example(args):
    examples = args[0]
    return examples[0].id if isinstance(examples, list) and len(examples) == 1 else None


# (module, attribute, span name, item id of the call, value kept from the result)
TRACED = (
    ("conllu", "parse_conllu", "conllu.parse_conllu", None, None),
    ("analysis", "analyze", "analysis.analyze", _sent_id, None),
    (
        "engine", "transform", "engine.transform",
        lambda a: a[0].question.sent_id, lambda a, r: len(r),
    ),
    ("nli", "load_qa_jsonl", "nli.load_qa_jsonl", None, None),
    ("nli", "attach_parses", "nli.attach_parses", None, None),
    (
        "nli", "build_pairs", "nli.build_pairs",
        _first_example, lambda a, r: [len(r.pairs), len(r.skips)],
    ),
    ("nli", "write_nli_jsonl", "nli.write_nli_jsonl", None, None),
    (
        "metrics", "evaluate", "metrics.evaluate",
        None, lambda a, r: [len(a[0]), sum(len(rec.candidates) for rec in a[0])],
    ),
    ("metrics", "bleu_corpus", "metrics.bleu_corpus", None, None),
    ("metrics", "topk_match", "metrics.topk_match", None, None),
    ("artifacts", "pmi", "artifacts.pmi", None, lambda a, r: r.vocabulary_size),
    ("artifacts", "length_histogram", "artifacts.length_histogram", None, None),
    ("artifacts", "word_overlap", "artifacts.word_overlap", None, None),
)


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install span wrappers in every loaded qa2nli module; restore on exit."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qa2nli"]
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr, span_name, item, value in TRACED:
            original = getattr(sys.modules.get(f"qa2nli.{mod_name}"), attr, None)
            if original is None:
                continue  # gone from the program: its metrics read 0
            wrapper = recorder.wrap(span_name, original, item, value)
            for module in modules:
                for key, obj in list(vars(module).items()):
                    if obj is original:
                        undo.append((module, key, obj))
                        setattr(module, key, wrapper)
        # Per-sentence construction: DepSentence validates its tree here.
        dep_sentence = sys.modules["qa2nli.conllu"].DepSentence
        post_init = dep_sentence.__post_init__
        undo.append((dep_sentence, "__post_init__", post_init))
        dep_sentence.__post_init__ = recorder.wrap(
            "conllu.DepSentence", post_init, lambda a: a[0].sent_id, lambda a, r: len(a[0].tokens)
        )
        yield recorder
    finally:
        for owner, key, obj in reversed(undo):
            setattr(owner, key, obj)


# -- deriving per-layer metrics ------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times (s), counts and per-call latencies (us) from spans."""
    # A span's self time is its duration minus that of its direct children.
    self_ns = [span[2] - span[1] for span in spans]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_ns[span[3]] -= span[2] - span[1]
        by_name.setdefault(span[0], []).append(i)

    def group(name: str) -> list[list]:
        return [spans[i] for i in by_name.get(name, [])]

    def total_s(name: str, self_only: bool = False) -> float:
        if self_only:
            return sum(self_ns[i] for i in by_name.get(name, [])) / 1e9
        return sum(s[2] - s[1] for s in group(name)) / 1e9

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def raised(name: str) -> int:
        return sum(1 for s in group(name) if s[5])

    def us(name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e3 for s in group(name)]

    def value_sum(name: str, pos: int | None = None) -> int:
        values = [s[6] for s in group(name) if s[6] is not None]
        return sum(v if pos is None else v[pos] for v in values)

    analyzed = calls("analysis.analyze") - raised("analysis.analyze")
    return {
        "conllu.parse_s": total_s("conllu.parse_conllu"),
        "conllu.sentences": calls("conllu.DepSentence") - raised("conllu.DepSentence"),
        "conllu.tokens": value_sum("conllu.DepSentence"),
        "conllu.sentence_us_p50": percentile(us("conllu.DepSentence"), 0.50),
        "conllu.sentence_us_p99": percentile(us("conllu.DepSentence"), 0.99),
        "analysis.analyze_s": total_s("analysis.analyze"),
        "analysis.calls": calls("analysis.analyze"),
        "analysis.failed": raised("analysis.analyze"),
        "analysis.analyze_us_p50": percentile(us("analysis.analyze"), 0.50),
        "analysis.analyze_us_p99": percentile(us("analysis.analyze"), 0.99),
        "engine.transform_s": total_s("engine.transform"),
        "engine.transform_calls": calls("engine.transform"),
        "engine.transform_failed": raised("engine.transform"),
        "engine.candidates": value_sum("engine.transform"),
        "engine.transform_us_p50": percentile(us("engine.transform"), 0.50),
        "engine.transform_us_p99": percentile(us("engine.transform"), 0.99),
        "engine.questions": analyzed,
        "engine.calls_per_question": calls("engine.transform") / analyzed if analyzed else 0.0,
        "nli.load_qa_s": total_s("nli.load_qa_jsonl"),
        "nli.attach_s": total_s("nli.attach_parses"),
        "nli.build_pairs_s": total_s("nli.build_pairs"),
        "nli.build_pairs_self_s": total_s("nli.build_pairs", self_only=True),
        "nli.pairs": value_sum("nli.build_pairs", 0),
        "nli.skips": value_sum("nli.build_pairs", 1),
        "nli.write_s": total_s("nli.write_nli_jsonl"),
        "metrics.evaluate_s": total_s("metrics.evaluate"),
        "metrics.records": value_sum("metrics.evaluate", 0),
        "metrics.candidates": value_sum("metrics.evaluate", 1),
        "metrics.bleu_corpus_s": total_s("metrics.bleu_corpus"),
        "metrics.topk_match_s": total_s("metrics.topk_match"),
        "artifacts.pmi_s": total_s("artifacts.pmi"),
        "artifacts.length_histogram_s": total_s("artifacts.length_histogram"),
        "artifacts.word_overlap_s": total_s("artifacts.word_overlap"),
        "artifacts.vocabulary": value_sum("artifacts.pmi"),
        "cli.main_s": total_s("cli.main"),
        "cli.self_s": total_s("cli.main", self_only=True),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
