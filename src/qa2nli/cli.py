"""Command-line interface.

Four subcommands cover the pipeline end to end:

    qa2d      rewrite question+answer pairs into ranked declaratives
    convert   build a labeled NLI corpus from a QA dataset
    eval      score declaratives against reference sentences
    analyze   probe a converted corpus for label giveaways

Data problems (unreadable files, schema violations, unknown ids) and bad
flag values exit with status 2. A reader that closes standard output
early (`| head`) ends the run quietly with status 1. Examples the
rewriter cannot handle are reported on stderr as JSON lines plus a
summary and do not affect the exit status.
Outputs are deterministic: rerunning a command on the same inputs gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from typing import Iterator, Sequence, TextIO

from .artifacts import length_histogram, pmi, word_overlap
from .conllu import index_by_sent_id, load_conllu
from .engine import EngineConfig, transform
from .errors import PipelineError, TransformError
from .metrics import evaluate, load_eval_records
from .nli import (
    NEGATIVE_POLICIES,
    SCHEMAS,
    SkipRecord,
    analyze_example,
    attach_parses,
    build_pairs,
    load_qa_jsonl,
    read_jsonl,
    require_key,
)

__all__ = ["main"]


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _report_skips(skips: Sequence[SkipRecord], written: str) -> None:
    """One JSON line per skip on stderr, then "qa2nli: <written>, N skipped"."""
    for skip in skips:
        print(json.dumps(skip.to_dict(), ensure_ascii=False), file=sys.stderr)
    print(f"qa2nli: {written}, {len(skips)} skipped", file=sys.stderr)


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        copy_wh_phrase=args.copy_wh_phrase,
        emit_alternatives=getattr(args, "alternatives", 1),
    )


def _load_examples(args: argparse.Namespace, schema: str):
    examples = load_qa_jsonl(args.qa, schema)
    sentences = load_conllu(args.parses)
    try:
        parses = index_by_sent_id(sentences)
    except ValueError as exc:  # a duplicate sent_id; the library does not know the path
        raise ValueError(f"{args.parses}: {exc}") from exc
    return attach_parses(examples, parses)


def _cmd_qa2d(args: argparse.Namespace) -> int:
    examples = _load_examples(args, "span")
    config = _engine_config(args)
    skips: list[SkipRecord] = []
    written = 0
    with _open_out(args.output) as out:
        for example in examples:
            analysis = analyze_example(example)
            if isinstance(analysis, SkipRecord):
                skips.append(analysis)
                continue
            try:
                candidates = transform(analysis, example.options[0].text, config)
            except TransformError as exc:
                skips.append(SkipRecord(example.id, "transform", str(exc)))
                continue
            for cand in candidates:
                row = {
                    "id": example.id,
                    "declarative": cand.text,
                    "rank": cand.rank,
                    "applied_rules": list(cand.applied_rules),
                }
                out.write(json.dumps(row, ensure_ascii=False) + "\n")
                written += 1
    _report_skips(skips, f"{written} declaratives written")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    examples = _load_examples(args, args.schema)
    result = build_pairs(
        examples, _engine_config(args), negatives=args.negatives, seed=args.seed
    )
    with _open_out(args.output) as out:
        for pair in result.pairs:
            out.write(json.dumps(pair.to_dict(), ensure_ascii=False) + "\n")
    by_provenance: dict[str, int] = {}
    for pair in result.pairs:
        by_provenance[pair.provenance.value] = by_provenance.get(pair.provenance.value, 0) + 1
    breakdown = " ".join(f"{k}={v}" for k, v in sorted(by_provenance.items()))
    _report_skips(result.skips, f"{len(result.pairs)} pairs written ({breakdown or 'none'})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate(load_eval_records(args.hypotheses, args.references), k=args.k)
    with _open_out(args.output) as out:
        if args.format == "json":
            out.write(report.to_json() + "\n")
        else:
            out.write(report.to_text() + "\n")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    for line_no, obj in read_jsonl(args.pairs):
        rows.append(
            {
                "premise": require_key(obj, "premise", str, line_no, args.pairs),
                "hypothesis": require_key(obj, "hypothesis", str, line_no, args.pairs),
                "label": require_key(obj, "label", str, line_no, args.pairs),
            }
        )
    if not rows:
        raise ValueError(f"{args.pairs}: no pairs")
    items = [(row["hypothesis"], row["label"]) for row in rows]
    table = pmi(items, k=args.smoothing, top_n=args.top)

    with _open_out(args.output) as out:
        if args.format == "csv":
            writer = csv.writer(out)
            writer.writerow(["label", "rank", "word", "pmi", "count", "percent"])
            for label, rank, word, value, count, percent in table.rows():
                writer.writerow([label, rank, word, f"{value:.6f}", count, f"{percent:.2f}"])
        else:
            out.write(table.to_text() + "\n")
            out.write("hypothesis length by label:\n")
            for label, stats in sorted(length_histogram(items).items()):
                out.write(
                    f"  {label}: mean={stats.mean:.2f} median={stats.median:.1f} "
                    f"histogram={stats.counts}\n"
                )
            overlaps: dict[str, list[float]] = {}
            for row in rows:
                overlaps.setdefault(row["label"], []).append(
                    word_overlap(row["hypothesis"], row["premise"])
                )
            out.write("hypothesis-premise word overlap by label:\n")
            for label, values in sorted(overlaps.items()):
                out.write(f"  {label}: mean={sum(values) / len(values):.2f}%\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qa2nli",
        description="Rule-based conversion of QA datasets into NLI corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qa2d = sub.add_parser("qa2d", help="rewrite question+answer pairs into declaratives")
    qa2d.add_argument("--qa", required=True, help="JSONL with id/question/passage/answer")
    qa2d.add_argument("--parses", required=True, help="CoNLL-U file, sent_id matching example ids")
    qa2d.add_argument("--alternatives", type=_positive_int, default=1, help="candidates per item")
    qa2d.add_argument(
        "--copy-wh-phrase",
        action="store_true",
        help="keep residual nouns of Which/How phrases next to the answer",
    )
    qa2d.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="ignored; accepted so existing command lines keep working",
    )
    qa2d.add_argument("--output", default="-", help="output file (default stdout)")
    qa2d.set_defaults(fn=_cmd_qa2d)

    convert = sub.add_parser("convert", help="build an NLI corpus from a QA dataset")
    convert.add_argument("--qa", required=True, help="JSONL dataset")
    convert.add_argument("--parses", required=True, help="CoNLL-U file, sent_id matching example ids")
    convert.add_argument("--schema", required=True, choices=SCHEMAS)
    convert.add_argument("--negatives", default="all", choices=NEGATIVE_POLICIES)
    convert.add_argument("--seed", type=int, default=0, help="seed for one-random sampling")
    convert.add_argument(
        "--copy-wh-phrase",
        action="store_true",
        help="keep residual nouns of Which/How phrases next to the answer",
    )
    convert.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="ignored; accepted so existing command lines keep working",
    )
    convert.add_argument("--output", default="-", help="output file (default stdout)")
    convert.set_defaults(fn=_cmd_convert)

    ev = sub.add_parser("eval", help="score declaratives against references")
    ev.add_argument("--hypotheses", required=True, help="qa2d output JSONL")
    ev.add_argument("--references", required=True, help="JSONL with id/references[/qtype/qa_length]")
    ev.add_argument("--k", type=_positive_int, default=None, help="candidate depth for top-k scores")
    ev.add_argument("--format", default="text", choices=("text", "json"))
    ev.add_argument("--output", default="-", help="output file (default stdout)")
    ev.set_defaults(fn=_cmd_eval)

    an = sub.add_parser("analyze", help="probe an NLI corpus for label giveaways")
    an.add_argument("--pairs", required=True, help="NLI JSONL (convert output)")
    an.add_argument("--smoothing", type=float, default=100.0, help="PMI smoothing k")
    an.add_argument("--top", type=_positive_int, default=5, help="words per class")
    an.add_argument("--format", default="text", choices=("text", "csv"))
    an.add_argument("--output", default="-", help="output file (default stdout)")
    an.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # The reader went away (e.g. piped into head). Point stdout at
        # devnull so the interpreter's final flush cannot fail again; see
        # "Note on SIGPIPE" in the Python signal module docs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (PipelineError, OSError, ValueError) as exc:
        print(f"qa2nli: error: {exc}", file=sys.stderr)
        return 2
