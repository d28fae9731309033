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

qa2d and convert read and check the QA file first, and then run through
one routine, _forked, at every --jobs. --jobs N cuts the examples into up
to N contiguous slices, no more than there are examples or usable CPUs.
There is one slice where Python has no os.fork and while another thread
runs (a forked child holds only the calling thread, and a lock another
thread held stays locked in it). One slice forks nothing: the whole
CoNLL-U file is loaded serially and the examples are rewritten straight
into the output.

With N > 1 slices the CoNLL-U file is cut into as many byte ranges
(conllu.sentence_starts), and the sent_id of the sentence at cut i names
the example that opens slice i. One worker process is forked per slice
after the first, before any parse is read; each process, this one
included, parses its own range and rewrites its own slice. Each worker
has one pipe and one anonymous temporary file for its rows, and pickles
two messages onto its pipe: first its report, the sent_ids of its range
that name no example (None when its range did not load), then, once its
slice is rewritten, its result and skips. No parse crosses between
processes. The output is opened only once every report has arrived (a
worker that ends before its report is complete counts as a failed load),
every range has parsed cleanly, no sent_id occurs twice, and every parse
that names an example lies in that example's slice; otherwise the
workers are killed and reaped. Then, and when there are no
such cuts (a CoNLL-U file that is not a regular file, such as a pipe,
whose data one read uses up; a cut with no whitespace-only line after
it; a cut at a sentence that names no example, or the examples out of
order), the CoNLL-U file is loaded serially, which reports any input
error as --jobs 1 does, and even slices of the examples are rewritten in
forked workers. So a pipe is read once, before anything is forked. This
process writes its own slice's rows to the output and then, in slice
order, reads each worker's pipe to its end, reaps the worker and appends
its rows as text. The pipe is read before the reap because a result
larger than the pipe's buffer holds the worker in its write until it is
read. The rows are copied in blocks of whole rows, and row by row in a
block the output cannot encode, so the output gets the bytes of one
serial pass in its own encoding and fails at the row where --jobs 1
does; every skip follows in input order, then one summary line of the
slices' results summed.
Stdout, stderr and the exit status are those of --jobs 1. Every worker
not yet reaped when the run ends, by any path, is killed and reaped.

Data problems (unreadable files, schema violations, unknown ids) and bad
flag values exit with status 2. A reader that closes standard output
early (`| head`) ends the run quietly with status 1. Examples the
rewriter cannot handle are reported on stderr as JSON lines plus a
summary and do not affect the exit status.
Outputs are deterministic: rerunning a command on the same inputs gives
byte-identical files.

Every command runs with the cyclic garbage collector off: main turns it
off and, on every way out, restores the state it found, so an in-process
caller keeps its own; forked workers inherit it off and never walk the
parent's heap. That is safe because no command makes a reference cycle
per item: reference counting frees each row, parse and skip as the run
goes, and what a run leaves in cycles (its argparse parser, about 200
objects) does not grow with its input, so the collector only walked the
heap to find nothing. An exception kept with its traceback in a local of
the frame that caught it is such a cycle, so the rewrite loop keeps a
failed answer's message, not its exception. tests/test_cli.py checks the
restore and the bound.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import math
import os
import sys
from collections import Counter
from typing import Any, Callable, Iterator, Sequence, TextIO

from .conllu import index_by_sent_id, load_conllu, sentence_starts
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


def _attached(examples: list[QAExample], parses: str) -> list[QAExample]:
    """The examples with their parses, loaded serially from the whole file."""
    sentences = load_conllu(parses)
    try:
        found = index_by_sent_id(sentences)
    except ValueError as exc:  # a duplicate sent_id; the library does not know the path
        raise DatasetError(str(exc), path=parses) from exc
    return attach_parses(examples, found)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_slices(
    work: Callable[[list[QAExample], TextIO, list[SkipRecord]], Any],
    examples: list[QAExample],
    parses: str,
    jobs: int,
    output: str,
) -> tuple[Any, list[SkipRecord]]:
    """Attach their parses from the CoNLL-U file parses to the examples, and
    run work(part, out, skips) over slices of them in up to jobs processes,
    with out open on output; return the slices' results summed with +=, and
    every skip in input order.

    work rewrites the examples of part, writes their rows to out and appends
    their skips to skips.

    Raises:
        DatasetError: from the serial load, for the first error in parses.
        ChildProcessError: a worker exited with a status other than 0.
    """
    n = max(min(jobs, len(examples), _usable_cpus()), 1)
    threading = sys.modules.get("threading")  # not imported: no thread was started
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        n = 1
    try:
        starts = sentence_starts(parses, n) if n > 1 else None
    except (OSError, DatasetError):  # the serial load reports it
        starts = None
    if starts:
        index = {example.id: i for i, example in enumerate(examples)}
        offsets = [0, *(offset for offset, _ in starts), None]
        bounds = [0, *(index.get(sent_id, -1) for _, sent_id in starts), len(examples)]

        def parsed_slice(i: int) -> tuple[list[QAExample], list[str]] | None:
            """Slice i with the parses of byte range i, and the sent_ids of
            that range that name no example; or None when the range does not
            parse, holds a sent_id twice, or holds the parse of an example of
            another slice."""
            try:
                found = index_by_sent_id(load_conllu(parses, offsets[i], offsets[i + 1]))
            except (PipelineError, OSError, ValueError):  # the serial load reports it
                return None
            orphans = []
            for sent_id in found:
                j = index.get(sent_id)
                if j is None:
                    orphans.append(sent_id)
                elif not bounds[i] <= j < bounds[i + 1]:
                    return None
            return attach_parses(examples[bounds[i] : bounds[i + 1]], found), orphans

        if all(a < b for a, b in zip(bounds, bounds[1:])):
            done = _forked(work, n, parsed_slice, output)
            if done:
                return done
    attached = _attached(examples, parses)
    even = [len(attached) * i // n for i in range(n + 1)]
    return _forked(work, n, lambda i: (attached[even[i] : even[i + 1]], ()), output)


def _forked(
    work: Callable[[list[QAExample], TextIO, list[SkipRecord]], Any],
    n: int,
    load: Callable[[int], tuple[list[QAExample], Sequence[str]] | None],
    output: str,
) -> tuple[Any, list[SkipRecord]] | None:
    """Run work over n slices, each after the first in a forked worker, with
    out open on output; return the slices' results summed with += and every
    skip, both in input order, or None, having opened no output, when a load
    fails.

    load(i) gives slice i's examples and the sent_ids of its parses that
    name no example, or None when it fails; it runs in the process that
    rewrites the slice.

    Raises:
        ChildProcessError: a worker exited with a status other than 0.
    """
    if n > 1:  # one slice forks nothing, so it needs none of these
        import pickle
        import signal
        import tempfile

        sys.stdout.flush()  # a forked worker holds a copy of any unwritten buffer
        sys.stderr.flush()
    workers = []  # (pid, pipe, rows file), one per slice after the first
    running = set()  # pids not yet reaped
    with contextlib.ExitStack() as files:
        try:
            for i in range(1, n):
                rows = files.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                )
                read_end, write_end = os.pipe()
                pipe = files.enter_context(open(read_end, "rb"))
                to_parent = files.enter_context(open(write_end, "wb"))
                pid = os.fork()
                if pid == 0:  # the worker; it leaves only through os._exit
                    status = 1
                    try:
                        loaded = load(i)
                        pickle.dump(loaded and loaded[1], to_parent)  # the report
                        to_parent.flush()
                        if loaded is not None:
                            part_skips: list[SkipRecord] = []
                            value = work(loaded[0], rows, part_skips)
                            rows.flush()
                            pickle.dump((value, part_skips), to_parent)  # the result
                            to_parent.flush()
                        status = 0
                    except Exception:
                        sys.excepthook(*sys.exc_info())
                        sys.stderr.flush()
                    finally:
                        os._exit(status)
                to_parent.close()
                running.add(pid)
                workers.append((pid, pipe, rows))
            loaded = load(0)
            if loaded is None:
                return None
            seen = set(loaded[1])
            for _, pipe, _ in workers:
                try:
                    orphans = pickle.load(pipe)  # the report alone; the result follows it
                except (EOFError, pickle.UnpicklingError):  # it ended before or while it reported
                    return None
                if orphans is None or seen.intersection(orphans):  # or a sent_id in two slices
                    return None
                seen.update(orphans)
            skips: list[SkipRecord] = []
            with _open_out(output) as out:
                total = work(loaded[0], out, skips)
                for i, (pid, pipe, rows) in enumerate(workers, start=1):
                    result = pipe.read()  # before waitpid: a worker blocks on a full pipe
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    running.discard(pid)
                    if status:
                        raise ChildProcessError(
                            f"worker {i} (pid {pid}) exited with status {status}"
                        )
                    value, part_skips = pickle.loads(result)
                    rows.seek(0)
                    while chunk := rows.read(1 << 16) + rows.readline():  # whole rows
                        try:
                            out.write(chunk)
                        except UnicodeEncodeError:  # one row a write: fail where --jobs 1 fails
                            out.writelines(io.StringIO(chunk, newline="\n"))
                    total += value
                    skips += part_skips
            return total, skips
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _cmd_qa2d(args: argparse.Namespace) -> int:
    examples = load_qa_jsonl(args.qa, "span")
    config = EngineConfig(copy_wh_phrase=args.copy_wh_phrase, emit_alternatives=args.alternatives)

    def rewrite(part: list[QAExample], out: TextIO, skips: list[SkipRecord]) -> int:
        written = 0
        for _, example, _, candidates in iter_rewrites(part, config, skips):
            written += write_declaratives(out, example.id, candidates)
        return written

    written, skips = _in_slices(rewrite, examples, args.parses, args.jobs, args.output)
    _report_skips(skips, f"{written} declaratives written")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    examples = load_qa_jsonl(args.qa, args.schema)
    config = EngineConfig(copy_wh_phrase=args.copy_wh_phrase)

    def rewrite(part: list[QAExample], out: TextIO, skips: list[SkipRecord]) -> Counter:
        pairs = iter_pairs(part, config, skips, negatives=args.negatives, seed=args.seed)
        return Counter(write_pairs(pairs, out))

    by_provenance, skips = _in_slices(rewrite, examples, args.parses, args.jobs, args.output)
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
        help="parse and rewrite in up to N processes, each on its own slice of the "
        "input (at most one per usable CPU and per example); output is that of --jobs 1",
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
    enabled = gc.isenabled()
    gc.disable()  # safe, as the module docstring says
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
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
