"""Golden CLI outputs: `eval` and `analyze` bytes pinned by sha256.

The scoring corpus (`scoring_*.jsonl`) was generated once with the
benchmark's seeded scoring generator (seed 7, 60 references, 60 pairs) and
committed, so these tests need nothing outside `tests/`. The files under
`fixtures/golden/` hold the pinned outputs; a mismatch reports the first
line that differs from them.
"""

import hashlib
from pathlib import Path

import pytest

from qa2nli.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

SCORING = [
    "--hypotheses", str(FIXTURES / "scoring_hypotheses.jsonl"),
    "--references", str(FIXTURES / "scoring_references.jsonl"),
]

PINNED = {
    "eval_scoring.json": "6158a8ca2143217376aad7ecc237aaa0304b1b31bf847d8f587fae01c0310677",
    "eval_scoring.text": "2ab8f79549e1908c14c3b02823f091cf4b4d62da28bd5c1c65b40810cb1191e4",
    "eval_qa2d_k1.json": "2e67f718f69996941ee4b5a9d3c13c3371e58093e64a9011f855d72891bf4354",
    "eval_qa2d_k1.text": "5fd40369622bd1ac3a83798fde88a4b1eb132d1191c093f8f00cfb96581089ff",
    "eval_qa2d_k3.json": "fba7f70bf2f33c8a7fdc19b08b2b871cbb51bf3e5f0caff92530f88dedc576c9",
    "eval_qa2d_k3.text": "fddd11c238f9ad2254cd3cbea419825d99fa633f5e9a3df721bc5b2b5235f2d5",
    "analyze_scoring.text": "df86d7a6a88ef816ed2932cfe10f0f1d4f58aced11be4e759b3b63dfe8d5bb9c",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(name: str, actual: bytes) -> None:
    expected = (GOLDEN / name).read_bytes()
    assert _sha(expected) == PINNED[name], f"{name}: golden file does not match its pin"
    if _sha(actual) == PINNED[name]:
        return
    got, want = actual.decode().splitlines(), expected.decode().splitlines()
    for line_no, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            pytest.fail(f"{name}: line {line_no} differs:\n  got:  {g!r}\n  want: {w!r}")
    pytest.fail(f"{name}: {len(got)} lines, golden has {len(want)} (or line endings differ)")


def _run(tmp_path, name: str, argv: list[str]) -> bytes:
    out = tmp_path / name
    assert main([*argv, "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_eval_scoring_corpus_golden(tmp_path, fmt):
    name = f"eval_scoring.{fmt}"
    _check(name, _run(tmp_path, name, ["eval", *SCORING, "--format", fmt]))


@pytest.fixture(scope="module")
def qa2d_alternatives(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("qa2d") / "alt3.jsonl"
    assert main([
        "qa2d", "--qa", str(FIXTURES / "qa2d_fixtures.jsonl"),
        "--parses", str(FIXTURES / "qa2d_fixtures.conllu"),
        "--alternatives", "3", "--output", str(out),
    ]) == 0
    return out


@pytest.mark.parametrize("k", ["1", "3"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_eval_qa2d_alternatives_golden(tmp_path, qa2d_alternatives, k, fmt):
    name = f"eval_qa2d_k{k}.{fmt}"
    argv = [
        "eval", "--hypotheses", str(qa2d_alternatives),
        "--references", str(FIXTURES / "qa2d_references.jsonl"),
        "--k", k, "--format", fmt,
    ]
    _check(name, _run(tmp_path, name, argv))


def test_analyze_scoring_pairs_golden(tmp_path):
    name = "analyze_scoring.text"
    argv = ["analyze", "--pairs", str(FIXTURES / "scoring_pairs.jsonl")]
    _check(name, _run(tmp_path, name, argv))
