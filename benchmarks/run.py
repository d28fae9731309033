"""Pipeline benchmark for qa2nli.

Run from the repository root:

    python3 benchmarks/run.py --workload convert_mc --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 generates the workload's inputs from the seed, runs its qa2nli
CLI command(s) as child processes for --seconds, checks every output and
prints the end-to-end metrics. --trace 1 prints the per-layer metrics
instead: it runs the same CLI commands in-process, with spans recorded
around the calls into each qa2nli module (see spans.py), next to untraced
in-process runs that give the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when every check passed.

The program under test is src/qa2nli of the checkout this file sits in; the
benchmark exits with status 2, printing no result, when it is missing.
Everything the benchmark writes goes under .bench_build/ in the checkout.
See benchmarks/README.md for workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "qa2nli-bench"

# Input sizes: a --jobs 1 run takes 0.6-1 s on a 2-vCPU x86 VM. Wall time
# of one such run varies by up to +-20 % there, so a run of the benchmark
# takes the median of many short runs rather than a few long ones.
SIZES = {"convert_mc": 2500, "qa2d_long": 1000, "score_corpus": 400}
K = 3  # qa2d --alternatives and eval --k
MIN_ROUNDS = 3
TRACE_E2E_SHARE = 0.4  # of --seconds, in trace mode, for the --jobs runs

# A probe is a fresh interpreter that imports qa2nli and cold-loads the two
# bundled word lists (set-up), then times a fixed pure-Python loop that does
# not touch qa2nli (calibration). The loop never changes, so its time
# measures how fast the machine runs Python right then.
PROBE = """\
import time
t0 = time.perf_counter()
import qa2nli
t1 = time.perf_counter()
qa2nli.VerbLexicon.bundled()
t2 = time.perf_counter()
qa2nli.PrepositionTable.bundled()
t3 = time.perf_counter()
words = "the old keeper of the northern harbor repaired a wooden gate near the mill".split()
seen = {}
for n in range(CAL_LOOPS):
    for i, w in enumerate(words):
        key = w.upper() + "|" + str((n + i) % 50)
        seen[key] = seen.get(key, 0) + len(w)
    rows = sorted(seen.items())
t4 = time.perf_counter()
print(t3 - t0, t2 - t1, t3 - t2, t4 - t3)
"""
CAL_LOOPS = 300
# Calibration loop time that timings are scaled to. Set-up and throughput
# are reported as they would read on a machine that runs the loop in
# exactly this time; the raw figures are in the report file.
CAL_REF_S = 0.04


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- workloads -------------------------------------------------------------------
# steps(d, jobs, tag) gives the CLI argument lists of one run, in order, and
# outputs(d, tag) the files they write. jobs is None where the command takes
# no --jobs.


def _convert_steps(d: Path, jobs, tag: str) -> list[list[str]]:
    return [[
        "convert", "--qa", f"{d}/qa.jsonl", "--parses", f"{d}/parses.conllu",
        "--schema", "multichoice", "--negatives", "all",
        "--jobs", str(jobs), "--output", f"{d}/{tag}.out.jsonl",
    ]]


def _qa2d_steps(d: Path, jobs, tag: str) -> list[list[str]]:
    return [[
        "qa2d", "--qa", f"{d}/qa.jsonl", "--parses", f"{d}/parses.conllu",
        "--alternatives", str(K), "--copy-wh-phrase",
        "--jobs", str(jobs), "--output", f"{d}/{tag}.out.jsonl",
    ]]


def _score_steps(d: Path, jobs, tag: str) -> list[list[str]]:
    return [
        [
            "eval", "--hypotheses", f"{d}/hypotheses.jsonl", "--references",
            f"{d}/references.jsonl", "--k", str(K), "--format", "json",
            "--output", f"{d}/{tag}.eval.json",
        ],
        ["analyze", "--pairs", f"{d}/pairs.jsonl", "--output", f"{d}/{tag}.analyze.txt"],
    ]


WORKLOADS = {
    "convert_mc": {
        "steps": _convert_steps,
        "outputs": lambda d, tag: [d / f"{tag}.out.jsonl"],
        "item": "QA line",
    },
    "qa2d_long": {
        "steps": _qa2d_steps,
        "outputs": lambda d, tag: [d / f"{tag}.out.jsonl"],
        "item": "QA line",
    },
    "score_corpus": {
        "steps": _score_steps,
        "outputs": lambda d, tag: [d / f"{tag}.eval.json", d / f"{tag}.analyze.txt"],
        "item": "eval record",
    },
}


def _semantic_checks(name: str, d: Path, tag: str, stderr: str, truth: dict) -> dict[str, bool]:
    if name == "convert_mc":
        return checks.check_convert((d / f"{tag}.out.jsonl").read_text("utf-8"), stderr, truth["items"])
    if name == "qa2d_long":
        return checks.check_qa2d((d / f"{tag}.out.jsonl").read_text("utf-8"), stderr, truth["items"], K)
    return checks.check_scoring(
        (d / f"{tag}.eval.json").read_text("utf-8"),
        (d / f"{tag}.analyze.txt").read_text("utf-8"),
        truth["expected"],
    )


def _counts(name: str, d: Path, tag: str, stderr: str, truth: dict) -> tuple[int, int, int]:
    """(items completed, items attempted, items skipped) of one command copy.

    An item is a QA line for convert_mc and qa2d_long, and an eval record for
    score_corpus, where attempted counts every reference and a reference
    with no hypotheses is left unscored.
    """
    attempted = _attempted(name, truth)
    if name == "score_corpus":
        done = json.loads((d / f"{tag}.eval.json").read_text("utf-8"))["n"]
        return done, attempted, attempted - done
    return attempted, attempted, len(checks.skipped_ids(stderr))


def _sha(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


# -- child processes ---------------------------------------------------------------


def _wait(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap a child; return its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _run_children(argvs: list[list[str]], err_paths: list[Path]) -> list[tuple[int, float]]:
    """Start every argv at once and wait for all of them."""
    procs = []
    try:
        for argv, err_path in zip(argvs, err_paths):
            with open(err_path, "wb") as err:
                procs.append(subprocess.Popen(
                    argv, cwd=ROOT, env=_env(),
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                ))
    finally:
        results = [_wait(p) for p in procs]
    return results


def _probe() -> list[float]:
    """[set-up s, lexicon load s, table load s, calibration s] of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE.replace("CAL_LOOPS", str(CAL_LOOPS))], cwd=ROOT, env=_env(),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return [float(x) for x in out.stdout.split()]


def _execute(name: str, d: Path, jobs, copies: int, tag: str, truth: dict) -> dict:
    """One run of the workload: its steps in order, `copies` at once each."""
    spec = WORKLOADS[name]
    tags = [f"{tag}-{c}" for c in range(copies)]
    codes, rss = [], 0.0
    t0 = time.perf_counter()
    for step in range(len(spec["steps"](d, jobs, tag))):
        argvs = [
            [sys.executable, "-m", "qa2nli", *spec["steps"](d, jobs, t)[step]] for t in tags
        ]
        for code, peak in _run_children(argvs, [d / f"{t}.{step}.err" for t in tags]):
            codes.append(code)
            rss = max(rss, peak)
    wall = time.perf_counter() - t0
    run = {"tag": tags[0], "wall_s": wall, "rss_mb": rss, "exit_ok": all(c == 0 for c in codes)}
    done = attempted = skipped = 0
    shas = set()
    if run["exit_ok"]:
        for t in tags:
            stderr = (d / f"{t}.0.err").read_text("utf-8")
            n_done, n_attempted, n_skipped = _counts(name, d, t, stderr, truth)
            done, attempted, skipped = done + n_done, attempted + n_attempted, skipped + n_skipped
            shas.add(tuple(_sha(spec["outputs"](d, t))))
    else:
        attempted = copies * _attempted(name, truth)
    run.update(items=done, attempted=attempted, skipped=skipped, shas=shas)
    return run


def _attempted(name: str, truth: dict) -> int:
    return truth["shares"]["references"] if name == "score_corpus" else len(truth["items"])


# -- the library API reference ---------------------------------------------------------


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qa2nli.cli  # noqa: F401  (loads every module the CLI uses)

    return sys.modules


def _api_output(name: str, d: Path, out: Path) -> bool:
    """Write what the library API gives for the workload; False if it has none."""
    mods = _import_program()
    nli, conllu = mods["qa2nli.nli"], mods["qa2nli.conllu"]
    engine, analysis = mods["qa2nli.engine"], mods["qa2nli.analysis"]
    if name == "score_corpus":
        return False
    schema = "multichoice" if name == "convert_mc" else "span"
    examples = nli.attach_parses(
        nli.load_qa_jsonl(str(d / "qa.jsonl"), schema),
        conllu.index_by_sent_id(conllu.load_conllu(str(d / "parses.conllu"))),
    )
    if name == "convert_mc":
        result = nli.build_pairs(examples, engine.EngineConfig(), negatives="all", seed=0)
        nli.write_nli_jsonl(result.pairs, str(out))
        return True
    config = engine.EngineConfig(copy_wh_phrase=True, emit_alternatives=K)
    pipeline_error = mods["qa2nli.errors"].PipelineError
    with open(out, "w", encoding="utf-8") as fh:
        for example in examples:
            if example.parse is None:
                continue
            try:
                found = analysis.analyze(example.parse)
                candidates = engine.transform(found, example.options[0].text, config)
            except pipeline_error:
                continue
            for cand in candidates:
                row = {
                    "id": example.id,
                    "declarative": cand.text,
                    "rank": cand.rank,
                    "applied_rules": list(cand.applied_rules),
                }
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return True


# -- measuring -----------------------------------------------------------------------


def _measure(name: str, d: Path, seconds: float, truth: dict) -> dict:
    """Alternate --jobs 1 and --jobs N runs, with probes around each, for `seconds`."""
    nproc = _nproc()
    # score_corpus's commands take no --jobs: its parallel runs are nproc
    # copies of the workload at once.
    serial_jobs, par_jobs, par_copies = (
        (None, None, nproc) if name == "score_corpus" else (1, nproc, 1)
    )
    subprocess.run(  # compile bytecode once, outside the timed runs
        [sys.executable, "-c", "import qa2nli.cli"], cwd=ROOT, env=_env(), check=True
    )
    serial, parallel, probes = [], [], [_probe()]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        order = [("s", serial_jobs, 1), ("p", par_jobs, par_copies)]
        for kind, jobs, copies in order if rounds % 2 == 0 else order[::-1]:
            run = _execute(name, d, jobs, copies, f"r{rounds}{kind}", truth)
            (serial if kind == "s" else parallel).append(run)
            probes.append(_probe())
            # Machine speed drifts within seconds: use the probes on either side.
            run["cal_s"] = (probes[-2][3] + probes[-1][3]) / 2
        rounds += 1

    return {"serial": serial, "parallel": parallel, "probes": probes, "rounds": rounds, "nproc": nproc}


def _verify(name: str, d: Path, measured: dict, truth: dict) -> None:
    """Check the runs' outputs; adds "checks" and "sha256" to `measured`."""
    serial, parallel = measured["serial"], measured["parallel"]
    first = serial[0]
    results = {}
    if first["exit_ok"]:
        stderr = (d / f"{first['tag']}.0.err").read_text("utf-8")
        results.update(_semantic_checks(name, d, first["tag"], stderr, truth))
    reference = next(iter(first["shas"]), None)
    results["exit_status_0"] = all(r["exit_ok"] for r in serial + parallel)
    results["repeat_outputs_identical"] = all(r["shas"] == {reference} for r in serial)
    results["jobs_outputs_identical"] = all(r["shas"] == {reference} for r in parallel)
    api_out = d / "api.out"
    if _api_output(name, d, api_out):
        results["cli_matches_library_api"] = bool(reference) and _sha([api_out])[0] == reference[0]
    measured["checks"] = results
    names = [p.name.split(".", 1)[1] for p in WORKLOADS[name]["outputs"](d, "x")]
    measured["sha256"] = dict(zip(names, reference or ()))


def _tally(measured: dict) -> dict:
    """Items attempted, failed and skipped; a run fails as a whole."""
    all_ok = all(measured["checks"].values())
    attempted = failed = skipped = 0
    for run in measured["serial"] + measured["parallel"]:
        attempted += run["attempted"]
        if all_ok and run["exit_ok"]:
            skipped += run["skipped"]
        else:
            failed += run["attempted"]
    return {"attempted": attempted, "failed": failed, "skipped": skipped, "correct": all_ok}


def _throughput(runs: list[dict], adjusted: bool = True) -> float:
    """Median items per second over runs, scaled to the calibration speed.

    Other tenants of a shared VM slow every process on it by up to 30 %,
    and the slowdown changes within seconds. Each run is scaled by the
    calibration time of the probes on either side of it. Over ten seeds on
    a 2-vCPU VM, unscaled medians spread by 8-13 % and scaled ones by 3-4 %.
    """
    return statistics.median(
        r["items"] / r["wall_s"] * (r["cal_s"] / CAL_REF_S if adjusted else 1.0) for r in runs
    )


def _end_to_end(measured: dict) -> dict:
    tally = _tally(measured)
    probes = measured["probes"]
    return {
        "setup_s": (statistics.median(p[0] * CAL_REF_S / p[3] for p in probes), "s"),
        "items_per_s": (_throughput(measured["serial"]), "items/s"),
        "items_per_s_parallel": (_throughput(measured["parallel"]), "items/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in measured["serial"]), "MB"),
        "failed_frac": ((tally["skipped"] + tally["failed"]) / tally["attempted"], "ratio"),
    }


def _raw(measured: dict) -> dict:
    """The unscaled timings behind the end-to-end metrics."""
    return {
        "calibration_s": statistics.median(p[3] for p in measured["probes"]),
        "setup_s": statistics.median(p[0] for p in measured["probes"]),
        "items_per_s": _throughput(measured["serial"], adjusted=False),
        "items_per_s_parallel": _throughput(measured["parallel"], adjusted=False),
    }


# -- the traced run ---------------------------------------------------------------------

LAYER_UNITS = {"_s": "s", "_p50": "us", "_p99": "us"}


def _unit(metric: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    if metric in ("engine.calls_per_question", "cli.jobs_speedup", "trace.overhead_frac"):
        return "ratio"
    if metric.startswith("cli.items_per_s"):
        return "items/s"
    return "count"


def _cli_inproc(cli, argv: list[str], err_path: Path) -> int:
    with open(err_path, "w", encoding="utf-8") as err, contextlib.redirect_stderr(err):
        return cli.main(argv)


def _traced(name: str, d: Path, seconds: float, truth: dict) -> tuple[dict, dict, spans.Recorder]:
    """Untraced and traced in-process rounds; per-layer metrics from the spans."""
    mods = _import_program()
    cli = mods["qa2nli.cli"]
    argvs = WORKLOADS[name]["steps"](d, 1, "inproc")
    untraced, traced_totals, layer_rounds, codes = [], [], [], []
    results = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS - 1 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        codes += [_cli_inproc(cli, argv, d / f"inproc.{i}.err") for i, argv in enumerate(argvs)]
        untraced.append(time.perf_counter() - t0)
        recorder = spans.Recorder()
        with spans.traced(recorder):
            codes += [
                recorder.span("cli.main", _cli_inproc, cli, argv, d / f"inproc.{i}.err")
                for i, argv in enumerate(argvs)
            ]
            traced_cli = sum(s[2] - s[1] for s in recorder.spans if s[0] == "cli.main") / 1e9
            has_api = recorder.span("api." + name, _api_output, name, d, d / "api.out")
        traced_totals.append(traced_cli)
        layer_rounds.append(spans.layer_metrics(recorder.spans))
        rounds += 1
    stderr = (d / "inproc.0.err").read_text("utf-8")
    results["exit_status_0"] = all(c == 0 for c in codes)
    if results["exit_status_0"]:
        results.update(_semantic_checks(name, d, "inproc", stderr, truth))
    if has_api:
        results["cli_matches_library_api"] = _sha([d / "api.out"]) == _sha(
            WORKLOADS[name]["outputs"](d, "inproc")
        )
    layers = spans.median_metrics(layer_rounds)
    layers["trace.overhead_frac"] = statistics.median(traced_totals) / statistics.median(untraced) - 1
    return layers, results, recorder


def _per_layer(name: str, d: Path, seconds: float, truth: dict, seed: int) -> tuple[dict, dict]:
    measured = _measure(name, d, seconds * TRACE_E2E_SHARE, truth)
    _verify(name, d, measured, truth)
    layers, results, recorder = _traced(name, d, seconds * (1 - TRACE_E2E_SHARE), truth)
    recorder.write(str(WORK / f"{name}-seed{seed}-spans.jsonl"))
    e2e = _end_to_end(measured)
    probes = measured["probes"]
    layers["morphology.lexicon_load_s"] = statistics.median(p[1] for p in probes)
    layers["engine.table_load_s"] = statistics.median(p[2] for p in probes)
    serial, parallel = e2e["items_per_s"][0], e2e["items_per_s_parallel"][0]
    layers["cli.items_per_s_jobs1"] = serial
    layers["cli.items_per_s_jobsN"] = parallel
    layers["cli.jobs_speedup"] = parallel / serial
    measured["checks"].update({f"inproc.{k}": v for k, v in results.items()})
    return {k: (v, _unit(k)) for k, v in sorted(layers.items())}, measured


# -- reporting ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: int | None) -> dict:
    d = WORK / f"{name}-seed{seed}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    truth = gen.generate(name, str(d), seed, size or SIZES[name])
    try:
        if trace:
            metrics, measured = _per_layer(name, d, seconds, truth, seed)
        else:
            measured = _measure(name, d, seconds, truth)
            _verify(name, d, measured, truth)
            metrics = _end_to_end(measured)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    report = {
        "workload": name,
        "seed": seed,
        "input": truth["shares"],
        "unit_item": WORKLOADS[name]["item"],
        "rounds": measured["rounds"],
        "nproc": measured["nproc"],
        "runs": {"jobs1": len(measured["serial"]), "parallel": len(measured["parallel"])},
        "checks": measured["checks"],
        "unscaled": _raw(measured),
        "samples": {
            kind: [{k: r[k] for k in ("wall_s", "cal_s", "rss_mb", "items")} for r in measured[kind]]
            for kind in ("serial", "parallel")
        },
        "sha256": measured["sha256"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **_tally(measured),
    }
    with open(WORK / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    _print_report(report)
    return report


def _print_report(report: dict) -> None:
    shares = report["input"]
    print(f"== {report['workload']} (seed {report['seed']}, nproc {report['nproc']}, "
          f"{report['rounds']} rounds; item = {report['unit_item']})")
    print("   input: " + json.dumps(shares, sort_keys=True))
    print("   unscaled: " + json.dumps(report["unscaled"], sort_keys=True))
    for name, m in report["metrics"].items():
        print(f"   {name:<30} {m['value']:>14.6g} {m['unit']}")
    failed = [k for k, ok in report["checks"].items() if not ok]
    print(f"   checks: {len(report['checks']) - len(failed)}/{len(report['checks'])} passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    for out, digest in report["sha256"].items():
        print(f"   sha256 {out}: {digest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="input size override, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "qa2nli" / "__init__.py").is_file():
        print(f"benchmark: no program to measure: {SRC / 'qa2nli'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.items) for n in names]
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
