"""Golden CLI outputs: `qa2d`, `convert`, `eval` and `analyze` bytes pinned
by sha256.

The scoring corpus (`scoring_*.jsonl`) was generated once with the
benchmark's seeded scoring generator (seed 7, 60 references, 60 pairs),
and the `gen_*` question corpora with its question generator (seed 7, 200
`convert_mc` items and 100 `qa2d_long` items); all are committed, so these
tests need nothing outside `tests/`. The files under `fixtures/golden/`
hold the pinned outputs; a mismatch reports the first line that differs
from them. `qa2d` and `convert` runs also pin their stderr (skip lines and
summary) exactly.
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
    "qa2d_fixtures.jsonl": "821fc2fe0f5caabd2808a4eba0ad2e2f215a2c57a1706d375e60e85b074ee7b3",
    "qa2d_fixtures_alt3_copy.jsonl": "c74b55f6657daae2a9a2ae4956469f7d46da37ec57ab6a4f903d6e32b2094563",
    "convert_multichoice_all.jsonl": "a37be38b0ca915ac13a32eee7c74f0021e4c6015a3be9bcd7d50f41621d02729",
    "convert_multichoice_one_random_seed3.jsonl": "baeb58d88fda871d8b91dd2b5b97f84fafe908d92ad6339c4265fb9a14b6d328",
    "convert_span.jsonl": "d4b152ad2abccce27d9b34e1cc659367ae0c5eeb1545c59469d65d4aada11a50",
    "convert_unanswerable.jsonl": "eb2c5488902945053f2edb849c28154e365565a366ffbb01bb47165d2e9a5774",
    "gen_convert_mc_200_all.jsonl": "f4a03aa9aff925ce61bb240b7fea07f641476be0c800723de8ad681657120977",
    "gen_qa2d_long_100_alt3_copy.jsonl": "de49a6ec97d88b314d16def3381eb727b731f6de4fd08acbc8658136529ce8fe",
}

# name -> argv (without --output); each run's stdout is pinned above and its
# stderr in fixtures/golden/<name>.stderr.
QA2D_FIXTURES = [
    "--qa", str(FIXTURES / "qa2d_fixtures.jsonl"),
    "--parses", str(FIXTURES / "qa2d_fixtures.conllu"),
]
MULTICHOICE = [
    "--qa", str(FIXTURES / "multichoice_20.jsonl"),
    "--parses", str(FIXTURES / "multichoice_20.conllu"),
    "--schema", "multichoice",
]
REWRITES = {
    "qa2d_fixtures.jsonl": ["qa2d", *QA2D_FIXTURES],
    "qa2d_fixtures_alt3_copy.jsonl": [
        "qa2d", *QA2D_FIXTURES, "--alternatives", "3", "--copy-wh-phrase",
    ],
    "convert_multichoice_all.jsonl": ["convert", *MULTICHOICE, "--negatives", "all"],
    "convert_multichoice_one_random_seed3.jsonl": [
        "convert", *MULTICHOICE, "--negatives", "one-random", "--seed", "3",
    ],
    "convert_span.jsonl": ["convert", *QA2D_FIXTURES, "--schema", "span"],
    "convert_unanswerable.jsonl": [
        "convert", "--qa", str(FIXTURES / "unanswerable_fixtures.jsonl"),
        "--parses", str(FIXTURES / "qa2d_fixtures.conllu"), "--schema", "unanswerable",
    ],
    "gen_convert_mc_200_all.jsonl": [
        "convert", "--qa", str(FIXTURES / "gen_convert_mc_200.jsonl"),
        "--parses", str(FIXTURES / "gen_convert_mc_200.conllu"),
        "--schema", "multichoice", "--negatives", "all",
    ],
    "gen_qa2d_long_100_alt3_copy.jsonl": [
        "qa2d", "--qa", str(FIXTURES / "gen_qa2d_long_100.jsonl"),
        "--parses", str(FIXTURES / "gen_qa2d_long_100.conllu"),
        "--alternatives", "3", "--copy-wh-phrase",
    ],
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


@pytest.mark.parametrize("name", sorted(REWRITES))
def test_rewrite_golden(tmp_path, capsys, name):
    stdout = _run(tmp_path, name, REWRITES[name])
    stderr = capsys.readouterr().err
    _check(name, stdout)
    assert stderr == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name", ["qa2d_fixtures.jsonl", "convert_span.jsonl"])
def test_line_endings_leave_output_unchanged(tmp_path, capsys, name, ending):
    """CRLF and lone-CR copies of the inputs give the bytes of the LF originals."""
    copies = []
    for flag, fixture in (("--qa", "qa2d_fixtures.jsonl"), ("--parses", "qa2d_fixtures.conllu")):
        copy = tmp_path / fixture
        copy.write_bytes((FIXTURES / fixture).read_bytes().replace(b"\n", ending))
        copies += [flag, str(copy)]
    command, rest = REWRITES[name][0], REWRITES[name][1 + len(QA2D_FIXTURES):]
    stdout = _run(tmp_path, name, [command, *copies, *rest])
    _check(name, stdout)
    assert capsys.readouterr().err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
