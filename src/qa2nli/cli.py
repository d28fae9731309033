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
import math
import os
import sys
from typing import Iterator, Sequence, TextIO

from .artifacts import _length_histogram, _pmi, _word_overlap
from .conllu import index_by_sent_id, load_conllu, read_jsonl, require_key
from .engine import DeclarativeCandidate, EngineConfig
from .errors import DatasetError, PipelineError
from .metrics import evaluate, load_eval_records, normalize
from .nli import (
    NEGATIVE_POLICIES,
    SCHEMAS,
    SkipRecord,
    _pairs,
    _rewrites,
    _to_json,
    _write_pairs,
    attach_parses,
    load_qa_jsonl,
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


def _smoothing(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value >= 0 and math.isfinite(value)):  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _report_skips(skips: Sequence[SkipRecord], written: str) -> None:
    """One JSON line per skip on stderr, then "qa2nli: <written>, N skipped"."""
    for skip in skips:
        print(_to_json(skip.to_dict()), file=sys.stderr)
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
        raise DatasetError(str(exc), path=args.parses) from exc
    return attach_parses(examples, parses)


def _write_declaratives(out: TextIO, example_id: str, cands: Sequence[DeclarativeCandidate]) -> int:
    """Write one qa2d row per candidate in cands, each the line json.dumps(row,
    ensure_ascii=False) gives for {id, declarative, rank, applied_rules}.

    The id is encoded once for all the candidates.
    """
    head = f'{{"id": {_to_json(example_id)}, "declarative": '
    for cand in cands:
        rules = _to_json(cand.applied_rules)
        out.write(f'{head}{_to_json(cand.text)}, "rank": {cand.rank}, "applied_rules": {rules}}}\n')
    return len(cands)


def _cmd_qa2d(args: argparse.Namespace) -> int:
    examples = _load_examples(args, "span")
    skips: list[SkipRecord] = []
    written = 0
    with _open_out(args.output) as out:
        for _, example, _, candidates in _rewrites(examples, _engine_config(args), skips):
            written += _write_declaratives(out, example.id, candidates)
    _report_skips(skips, f"{written} declaratives written")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    examples = _load_examples(args, args.schema)
    skips: list[SkipRecord] = []
    pairs = _pairs(examples, _engine_config(args), skips, args.negatives, args.seed)
    with _open_out(args.output) as out:
        by_provenance = _write_pairs(pairs, out)
    breakdown = " ".join(f"{k.value}={v}" for k, v in sorted(by_provenance.items()))
    _report_skips(skips, f"{sum(by_provenance.values())} pairs written ({breakdown or 'none'})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate(load_eval_records(args.hypotheses, args.references), k=args.k)
    with _open_out(args.output) as out:
        out.write((report.to_json() if args.format == "json" else report.to_text()) + "\n")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Each hypothesis is split into normalized words once, and each distinct
    # premise once: convert writes a passage as the premise of every pair of
    # its question.
    docs: list[tuple[list[str], str]] = []
    rows: list[tuple[int, str]] = []
    for line_no, obj in read_jsonl(args.pairs):
        rows.append((line_no, require_key(obj, "premise", str, line_no, args.pairs)))
        words = normalize(require_key(obj, "hypothesis", str, line_no, args.pairs)).split()
        docs.append((words, require_key(obj, "label", str, line_no, args.pairs)))
    if not docs:
        raise DatasetError("no pairs", path=args.pairs)
    try:
        table = _pmi(docs, args.smoothing, args.top)
    except ValueError as exc:  # fewer than two labels; the flags are checked by the parser
        raise DatasetError(str(exc), path=args.pairs) from exc
    # Everything the text report needs is computed before the output is
    # opened, so a bad line leaves nothing written.
    overlaps: dict[str, list[float]] = {}
    if args.format == "text":
        lengths = sorted(_length_histogram(docs).items())
        premise_types = {p: set(normalize(p).split()) for p in {p for _, p in rows}}
        for (words, label), (line_no, premise) in zip(docs, rows):
            try:
                overlap = _word_overlap(words, premise_types[premise])
            except ValueError as exc:
                raise DatasetError("hypothesis has no words", line_no, args.pairs) from exc
            overlaps.setdefault(label, []).append(overlap)

    with _open_out(args.output) as out:
        if args.format == "csv":
            writer = csv.writer(out)
            writer.writerow(["label", "rank", "word", "pmi", "count", "percent"])
            for label, rank, word, value, count, percent in table.rows():
                writer.writerow([label, rank, word, f"{value:.6f}", count, f"{percent:.2f}"])
        else:
            out.write(table.to_text() + "\n")
            out.write("hypothesis length by label:\n")
            for label, stats in lengths:
                out.write(
                    f"  {label}: mean={stats.mean:.2f} median={stats.median:.1f} "
                    f"histogram={stats.counts}\n"
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

    # Flags shared between subcommands, each declared once. --qa and --parses
    # come first so "the following arguments are required" lists them first.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default="-", help="output file (default stdout)")
    rewrite = argparse.ArgumentParser(add_help=False)
    rewrite.add_argument(
        "--qa", required=True, help="JSONL dataset (qa2d: id/question/passage/answer)"
    )
    rewrite.add_argument("--parses", required=True, help="CoNLL-U file, sent_id matching example ids")
    rewrite.add_argument(
        "--copy-wh-phrase",
        action="store_true",
        help="keep residual nouns of Which/How phrases next to the answer",
    )
    rewrite.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="ignored; accepted so existing command lines keep working",
    )

    qa2d = sub.add_parser(
        "qa2d", parents=[rewrite, output], help="rewrite question+answer pairs into declaratives"
    )
    qa2d.add_argument("--alternatives", type=_positive_int, default=1, help="candidates per item")
    qa2d.set_defaults(fn=_cmd_qa2d)

    convert = sub.add_parser(
        "convert", parents=[rewrite, output], help="build an NLI corpus from a QA dataset"
    )
    convert.add_argument("--schema", required=True, choices=SCHEMAS)
    convert.add_argument("--negatives", default="all", choices=NEGATIVE_POLICIES)
    convert.add_argument("--seed", type=int, default=0, help="seed for one-random sampling")
    convert.set_defaults(fn=_cmd_convert)

    ev = sub.add_parser("eval", parents=[output], help="score declaratives against references")
    ev.add_argument("--hypotheses", required=True, help="qa2d output JSONL")
    ev.add_argument("--references", required=True, help="JSONL with id/references[/qtype/qa_length]")
    ev.add_argument("--k", type=_positive_int, default=None, help="candidate depth for top-k scores")
    ev.add_argument("--format", default="text", choices=("text", "json"))
    ev.set_defaults(fn=_cmd_eval)

    an = sub.add_parser("analyze", parents=[output], help="probe an NLI corpus for label giveaways")
    an.add_argument("--pairs", required=True, help="NLI JSONL (convert output)")
    an.add_argument("--smoothing", type=_smoothing, default=100.0, help="PMI smoothing k")
    an.add_argument("--top", type=_positive_int, default=5, help="words per class")
    an.add_argument("--format", default="text", choices=("text", "csv"))
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
