"""Command-line interface.

Four subcommands cover the pipeline end to end:

    qa2d      rewrite question+answer pairs into ranked declaratives
    convert   build a labeled NLI corpus from a QA dataset
    eval      score declaratives against reference sentences
    analyze   probe a converted corpus for label giveaways

Each is a thin layer over the public library: qa2d and convert over the
streaming rewrite path of nli (iter_rewrites, iter_pairs and the row
writers), eval over metrics.load_eval_records and evaluate, analyze over
artifacts.analyze_corpus. Importing this module imports the rewrite stack;
eval and analyze import metrics and artifacts when they run, so qa2d and
convert never load the scoring code.

qa2d and convert read and check all their input first. With --jobs N
(N > 1, on a platform with os.fork) they then cut the examples into up to
N contiguous slices, no more than there are examples or usable CPUs, and
fork one worker process per slice after the first. This process rewrites
the first slice into the output while each worker writes its rows to an
anonymous temporary file; the workers' rows follow in slice order, then
every skip in input order and one summary line. Stdout, stderr and the
exit status are those of --jobs 1, the default, which is one serial pass.

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
import math
import os
import sys
from collections import Counter
from typing import Callable, Iterator, Sequence, TextIO

from .conllu import index_by_sent_id, load_conllu
from .engine import EngineConfig
from .errors import DatasetError, PipelineError
from .nli import (
    NEGATIVE_POLICIES,
    SCHEMAS,
    QAExample,
    SkipRecord,
    attach_parses,
    iter_pairs,
    iter_rewrites,
    load_qa_jsonl,
    to_json,
    write_declaratives,
    write_pairs,
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
        print(to_json(skip.to_dict()), file=sys.stderr)
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_slices(
    work: Callable[[list[QAExample], TextIO, list[SkipRecord]], object],
    examples: list[QAExample],
    jobs: int,
    out: TextIO,
) -> tuple[list, list[SkipRecord]]:
    """Run work(part, out, skips) over the examples; return the result of
    each call and every skip, both in input order.

    work rewrites the examples of part, writes their rows to out and appends
    their skips to skips. It is called once on all the examples when jobs,
    the examples or the usable CPUs number fewer than 2, without os.fork,
    and while another thread runs (a forked child holds only the calling
    thread, and a lock another thread held stays locked in it). Otherwise
    the examples are cut into that many contiguous slices, and a forked
    worker runs work on each slice after the first, writing to an anonymous
    temporary file opened before the fork. This process runs the first
    slice straight into out, then reaps the workers in slice order and
    copies each one's rows to out in blocks of text, so out gets the bytes
    of the one call in its own encoding. Workers
    leave through os._exit; every worker not yet reaped when this function
    exits, by any path, is killed and reaped.

    Raises:
        ChildProcessError: a worker exited with a status other than 0.
    """
    n = min(jobs, len(examples), _usable_cpus())
    skips: list[SkipRecord] = []
    threading = sys.modules.get("threading")  # not imported: no thread was started
    if n < 2 or not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return [work(examples, out, skips)], skips
    import pickle
    import shutil
    import signal
    import tempfile

    cuts = [len(examples) * i // n for i in range(n + 1)]
    workers = []  # (pid, rows file, pickled result file), one per slice after the first
    running = set()  # pids not yet reaped
    sys.stdout.flush()  # a forked worker holds a copy of any unwritten buffer
    sys.stderr.flush()
    with contextlib.ExitStack() as files:
        try:
            for i in range(1, n):
                rows = files.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                )
                result = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:  # the worker; it leaves only through os._exit
                    status = 1
                    try:
                        part_skips: list[SkipRecord] = []
                        value = work(examples[cuts[i] : cuts[i + 1]], rows, part_skips)
                        rows.flush()
                        pickle.dump((value, part_skips), result)
                        result.flush()
                        status = 0
                    except Exception:
                        sys.excepthook(*sys.exc_info())
                        sys.stderr.flush()
                    finally:
                        os._exit(status)
                running.add(pid)
                workers.append((pid, rows, result))
            results = [work(examples[: cuts[1]], out, skips)]
            for i, (pid, rows, result) in enumerate(workers, start=1):
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                running.discard(pid)
                if status:
                    raise ChildProcessError(f"worker {i} (pid {pid}) exited with status {status}")
                result.seek(0)
                value, part_skips = pickle.load(result)
                rows.seek(0)
                shutil.copyfileobj(rows, out)
                results.append(value)
                skips += part_skips
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results, skips


def _cmd_qa2d(args: argparse.Namespace) -> int:
    examples = _load_examples(args, "span")
    config = _engine_config(args)

    def rewrite(part: list[QAExample], out: TextIO, skips: list[SkipRecord]) -> int:
        written = 0
        for _, example, _, candidates in iter_rewrites(part, config, skips):
            written += write_declaratives(out, example.id, candidates)
        return written

    with _open_out(args.output) as out:
        written, skips = _in_slices(rewrite, examples, args.jobs, out)
    _report_skips(skips, f"{sum(written)} declaratives written")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    examples = _load_examples(args, args.schema)
    config = _engine_config(args)

    def rewrite(part: list[QAExample], out: TextIO, skips: list[SkipRecord]) -> dict:
        pairs = iter_pairs(part, config, skips, negatives=args.negatives, seed=args.seed)
        return write_pairs(pairs, out)

    with _open_out(args.output) as out:
        counts, skips = _in_slices(rewrite, examples, args.jobs, out)
    by_provenance: Counter = Counter()
    for part_counts in counts:
        by_provenance.update(part_counts)
    breakdown = " ".join(f"{k.value}={v}" for k, v in sorted(by_provenance.items()))
    _report_skips(skips, f"{sum(by_provenance.values())} pairs written ({breakdown or 'none'})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import evaluate, load_eval_records

    report = evaluate(load_eval_records(args.hypotheses, args.references), k=args.k)
    with _open_out(args.output) as out:
        out.write((report.to_json() if args.format == "json" else report.to_text()) + "\n")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .artifacts import analyze_corpus

    as_csv = args.format == "csv"  # the CSV table is the PMI table alone
    report = analyze_corpus(args.pairs, args.smoothing, args.top, overlap=not as_csv)
    with _open_out(args.output) as out:
        out.write(report.to_csv() if as_csv else report.to_text() + "\n")
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
        metavar="N",
        help="rewrite in up to N processes, forked after the input is read "
        "(at most one per usable CPU and per example); output is that of --jobs 1",
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
        os.close(devnull)
        return 1
    except (PipelineError, OSError, ValueError) as exc:
        print(f"qa2nli: error: {exc}", file=sys.stderr)
        return 2
