"""Every exported name resolves, so moved or deleted code leaves no stale export."""

import importlib
import pkgutil

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
