"""Every exported name resolves, so moved or deleted code leaves no stale export,
and importing the package loads a module only when one of its names is read."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qa2nli

_MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(qa2nli.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", ["qa2nli", *(f"qa2nli.{m}" for m in _MODULES)])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_eval_loader():
    from qa2nli.metrics import load_eval_records

    assert qa2nli.load_eval_records is load_eval_records
    assert "load_eval_records" in qa2nli.__all__


# The names the package exported before its export list was built from the
# modules' __all__; it may gain names, but must not lose any of these.
_EXPORTED = {
    "AnalysisError", "AnswerOption", "BuildResult", "ConlluFormatError",
    "ConlluStructureError", "DatasetError", "DeclarativeCandidate", "DepSentence",
    "DepToken", "EngineConfig", "EvalRecord", "EvalReport", "Label", "LengthStats",
    "NliPair", "NotWhQuestionError", "PipelineError", "PmiEntry", "PmiTable",
    "PrepositionTable", "Provenance", "QAExample", "QuestionPlan", "QuestionType",
    "SkipRecord", "TransformError", "VerbLexicon", "WhAnalysis", "analyze",
    "attach_parses", "bleu_corpus", "build_pairs", "classify_question", "evaluate",
    "exact_match", "index_by_sent_id", "insert_article", "length_histogram",
    "load_conllu", "load_eval_records", "load_qa_jsonl", "normalize", "parse_conllu",
    "plan_question", "pmi", "realize", "reinflect", "sentence_bleu", "to_conllu",
    "topk_match", "transform", "undo_inversion", "word_overlap", "write_nli_jsonl",
}
# Every module but cli, which the package does not import.
_LIBRARY = [m for m in _MODULES if m != "cli"]


def test_package_exports_each_module_all_once():
    modules = [importlib.import_module(f"qa2nli.{m}") for m in _LIBRARY]
    assert len(modules) == 8
    names = qa2nli.__all__
    assert len(names) == len(set(names))
    assert names == [n for module in modules for n in module.__all__]
    assert len(_EXPORTED) == 54
    assert _EXPORTED <= set(names)
    for module in modules:
        for n in module.__all__:
            assert getattr(qa2nli, n) is getattr(module, n), n


# -- laziness: each case runs in a fresh interpreter ----------------------------------


def _fresh(code: str, env: dict) -> str:
    """Stdout of `code` run by a new interpreter that imports this package."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8",
        env=env, check=True,
    )
    return proc.stdout


_LOADED = "import sys; print(*sorted(m for m in sys.modules if m.startswith('qa2nli.')))"


def _loaded_after(code: str, env: dict) -> set[str]:
    """The qa2nli modules loaded once `code` has run."""
    return {m.removeprefix("qa2nli.") for m in _fresh(f"{code}\n{_LOADED}", env).split()}


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import qa2nli", set()),
        ("import qa2nli; qa2nli.__version__", set()),
        # no __all__ holds a private name, so probing one loads nothing
        ("import qa2nli; hasattr(qa2nli, '__wrapped__')", set()),
        ("import qa2nli; qa2nli.VerbLexicon", {"errors", "conllu", "morphology"}),
        ("import qa2nli; qa2nli.morphology", {"errors", "conllu", "morphology"}),
        (
            "import qa2nli; qa2nli.PrepositionTable",
            {"errors", "conllu", "morphology", "analysis", "engine"},
        ),
    ],
    ids=["package", "version", "private-name", "VerbLexicon", "module", "PrepositionTable"],
)
def test_a_name_loads_its_module_and_what_that_imports(child_env, code, loaded):
    assert _loaded_after(code, child_env) == loaded


def test_metrics_loads_no_rewrite_module(child_env):
    # eval reads JSONL through conllu, not through the rewrite stack in nli
    assert _loaded_after("import qa2nli.metrics", child_env) == {"errors", "conllu", "metrics"}


def test_cli_loads_the_modules_the_benchmark_reads(child_env):
    # benchmarks/run.py reads these from sys.modules after `import qa2nli.cli`
    loaded = _loaded_after("import qa2nli.cli", child_env)
    assert {"cli", "analysis", "conllu", "engine", "errors", "nli"} <= loaded


_FIXTURES = Path(__file__).parent / "fixtures"
_QA2D = ["--qa", str(_FIXTURES / "qa2d_fixtures.jsonl"),
         "--parses", str(_FIXTURES / "qa2d_fixtures.conllu")]
_SCORING = [
    "eval", "--hypotheses", str(_FIXTURES / "scoring_hypotheses.jsonl"),
    "--references", str(_FIXTURES / "scoring_references.jsonl"),
]


@pytest.mark.parametrize(
    "argv, scoring",
    [
        (None, set()),
        (["qa2d", *_QA2D], set()),
        (["convert", *_QA2D, "--schema", "span"], set()),
        (_SCORING, {"qa2nli.metrics"}),
        (["analyze", "--pairs", str(_FIXTURES / "scoring_pairs.jsonl")],
         {"qa2nli.metrics", "qa2nli.artifacts", "csv"}),
    ],
    ids=["import", "qa2d", "convert", "eval", "analyze"],
)
def test_cli_loads_scoring_code_only_in_eval_and_analyze(child_env, tmp_path, argv, scoring):
    # qa2d and convert never load metrics, artifacts or csv; the modules
    # benchmarks/run.py reads are loaded all the same
    run = "" if argv is None else f"qa2nli.cli.main({[*argv, '--output', str(tmp_path / 'out')]!r})"
    code = (
        f"import sys, qa2nli.cli\n{run}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qa2nli.') or m == 'csv'))"
    )
    loaded = set(_fresh(code, child_env).split())
    assert loaded & {"qa2nli.metrics", "qa2nli.artifacts", "csv"} == scoring
    assert {f"qa2nli.{m}" for m in ("analysis", "conllu", "engine", "errors", "nli")} <= loaded


def test_cli_imports_no_private_name_of_another_module():
    tree = ast.parse(Path(qa2nli.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    # the check sees the imports, including those inside a command
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {"nli", "metrics", "artifacts"} <= modules


def test_star_import_binds_exactly_all(child_env):
    code = (
        "import json, qa2nli\n"
        "ns = {}\n"
        "exec('from qa2nli import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), qa2nli.__all__, dir(qa2nli)]))"
    )
    bound, names, listed = json.loads(_fresh(code, child_env))
    assert bound == sorted(names)
    assert len(names) == len(set(names))
    assert set(names) <= set(listed)


def test_unknown_name_raises_attribute_error(child_env):
    code = (
        "import qa2nli\n"
        "try:\n"
        "    qa2nli.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    assert _fresh(code, child_env) == "module 'qa2nli' has no attribute 'no_such_name'\n"
