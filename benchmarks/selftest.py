"""Self-test of the pipeline benchmark at a tiny size.

Run from the repository root:

    python3 benchmarks/selftest.py

It checks that the same seed gives byte-identical inputs (and another seed
different ones), that correct outputs pass every check, that a deliberately
corrupted output fails a check and raises failed_frac, that the whole
benchmark runs on every workload with --trace 0 and 1, and that it exits
non-zero, printing no result, when the program is missing. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run

TINY = 60
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def digest(d: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(d.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def same_seed_same_bytes(base: Path) -> None:
    for name in run.WORKLOADS:
        a, b, c = base / f"{name}-a", base / f"{name}-b", base / f"{name}-c"
        gen.generate(name, str(a), 7, TINY)
        gen.generate(name, str(b), 7, TINY)
        gen.generate(name, str(c), 8, TINY)
        expect(digest(a) == digest(b), f"{name}: seed 7 twice gives byte-identical inputs")
        expect(digest(a) != digest(c), f"{name}: seeds 7 and 8 give different inputs")


def _edit_first_line(path: Path, old: str, new: str) -> None:
    lines = path.read_text("utf-8").splitlines(keepends=True)
    lines[0] = lines[0].replace(old, new, 1)
    path.write_text("".join(lines), "utf-8")


def _bump_eval_n(path: Path) -> None:
    report = json.loads(path.read_text("utf-8"))
    report["n"] += 1
    path.write_text(json.dumps(report), "utf-8")


CORRUPTIONS = {
    # workload: (output file suffix, corruption, check that must then fail)
    "convert_mc": (
        "out.jsonl",
        lambda p: _edit_first_line(p, '"label": "entailed"', '"label": "not_entailed"'),
        "label_matches_provenance",
    ),
    "qa2d_long": (
        "out.jsonl",
        lambda p: _edit_first_line(p, '."', '?"'),
        "declarative_has_no_question_mark",
    ),
    "score_corpus": ("eval.json", _bump_eval_n, "eval_n_equals_records"),
}


def corrupted_output_fails(base: Path) -> None:
    for name in run.WORKLOADS:
        d = base / f"{name}-checks"
        d.mkdir(parents=True)
        truth = gen.generate(name, str(d), 11, TINY)
        measured = run._measure(name, d, 0, truth)
        run._verify(name, d, measured, truth)
        before = run._end_to_end(measured)["failed_frac"][0]
        expect(all(measured["checks"].values()), f"{name}: correct outputs pass all checks")
        stated = truth["shares"].get("non_wh_share", truth["shares"].get("unscored_reference_share"))
        expect(before == stated, f"{name}: failed_frac {before:.4f} equals the stated skip share")

        suffix, corrupt, check = CORRUPTIONS[name]
        corrupt(d / f"{measured['serial'][0]['tag']}.{suffix}")
        run._verify(name, d, measured, truth)
        after = run._end_to_end(measured)["failed_frac"][0]
        expect(not measured["checks"][check], f"{name}: corrupted output fails {check}")
        expect(after > before, f"{name}: failed_frac rises from {before:.4f} to {after:.4f}")


def whole_benchmark_runs() -> None:
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(run.ROOT / "benchmarks" / "run.py"), "--workload", "all",
             "--seed", "5", "--seconds", "0", "--trace", trace, "--items", str(TINY)],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(proc.returncode == 0 and result["correct"], f"--trace {trace}: all workloads correct")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace}: result line has exactly the four keys")


def missing_program_fails(base: Path) -> None:
    bare = base / "bare"
    shutil.copytree(run.ROOT / "benchmarks", bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "convert_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/qa2nli: non-zero exit and no result")


def main() -> int:
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        same_seed_same_bytes(base)
        corrupted_output_fails(base)
        whole_benchmark_runs()
        missing_program_fails(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
