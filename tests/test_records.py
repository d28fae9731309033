"""The contract of the package's immutable records.

Twelve records are NamedTuples: each keeps its constructor (field order,
keywords, defaults), its repr text, equality by value and immutability.
Five classes stay dataclasses, because callers read them through the
dataclasses module, and a fresh interpreter checks that the CLI's import
decorates no other.
"""

import json
import subprocess
import sys

import pytest

from qa2nli.analysis import analyze
from qa2nli.artifacts import LengthStats, PmiEntry, PmiTable
from qa2nli.engine import EngineConfig, QuestionPlan, _frame, plan_question
from qa2nli.metrics import EvalRecord, EvalReport
from qa2nli.morphology import VerbLexicon
from qa2nli.nli import (
    AnswerOption,
    BuildResult,
    Label,
    NliPair,
    Provenance,
    QAExample,
    SkipRecord,
)

_MILK = AnswerOption("milk", True)
_PAIR = NliPair("f02:0", "p", "Liz bought milk.", Label.ENTAILED, Provenance.CORRECT_ANSWER)
_SKIP = SkipRecord("f02", "options", "r")

# (class, keyword arguments, the defaults left out, repr of the instance)
RECORDS = [
    (AnswerOption, {"text": "milk", "correct": True}, {},
     "AnswerOption(text='milk', correct=True)"),
    (QAExample, {"id": "f02", "question": "q", "passage": "p", "options": (_MILK,)},
     {"answerable": True, "parse": None},
     "QAExample(id='f02', question='q', passage='p', options=(AnswerOption(text='milk', "
     "correct=True),), answerable=True, parse=None)"),
    (NliPair, {"id": "f02:0", "premise": "p", "hypothesis": "h", "label": Label.ENTAILED,
               "provenance": Provenance.CORRECT_ANSWER}, {},
     "NliPair(id='f02:0', premise='p', hypothesis='h', label=<Label.ENTAILED: 'entailed'>, "
     "provenance=<Provenance.CORRECT_ANSWER: 'correct_answer'>)"),
    (SkipRecord, {"example_id": "f02", "stage": "options", "reason": "r"}, {"option": None},
     "SkipRecord(example_id='f02', stage='options', reason='r', option=None)"),
    (BuildResult, {"pairs": (_PAIR,), "skips": (_SKIP,)}, {},
     f"BuildResult(pairs=({_PAIR!r},), skips=({_SKIP!r},))"),
    (EvalRecord, {"id": "r1", "candidates": ("a.",), "references": ("a",)},
     {"qtype": None, "qa_length": None},
     "EvalRecord(id='r1', candidates=('a.',), references=('a',), qtype=None, qa_length=None)"),
    (EvalReport, {"n": 1, "k": 2, "exact": 100.0, "bleu": 0.0, "topk_exact": 100.0,
                  "topk_bleu": 0.0, "by_qtype": {}, "by_length": {}}, {},
     "EvalReport(n=1, k=2, exact=100.0, bleu=0.0, topk_exact=100.0, topk_bleu=0.0, "
     "by_qtype={}, by_length={})"),
    (PmiEntry, {"word": "not", "pmi": 0.5, "count": 3, "percent": 30.0}, {},
     "PmiEntry(word='not', pmi=0.5, count=3, percent=30.0)"),
    (PmiTable, {"classes": {"entailed": ()}, "k": 100.0, "vocabulary_size": 7}, {},
     "PmiTable(classes={'entailed': ()}, k=100.0, vocabulary_size=7)"),
    (LengthStats, {"counts": {5: 2}, "mean": 5.0, "median": 5.0}, {},
     "LengthStats(counts={5: 2}, mean=5.0, median=5.0)"),
    (VerbLexicon, {"irregular_past": {"go": "went"}},
     {"irregular_third_singular": {}},  # read-only: mappingproxy({}) == {}
     "VerbLexicon(irregular_past={'go': 'went'}, irregular_third_singular=mappingproxy({}))"),
]
_IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize(("cls", "kwargs", "defaults", "text"), RECORDS, ids=_IDS)
def test_record_keeps_its_constructor_and_repr(cls, kwargs, defaults, text):
    record = cls(**kwargs)
    assert list(cls._fields) == [*kwargs, *defaults]
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert cls(*kwargs.values(), *defaults.values()) == record
    assert repr(record) == text


@pytest.mark.parametrize(("cls", "kwargs", "defaults", "text"), RECORDS, ids=_IDS)
def test_record_compares_by_value_and_is_immutable(cls, kwargs, defaults, text):
    record, twin = cls(**kwargs), cls(**kwargs)
    assert record == twin and record is not twin
    first = next(iter(kwargs))
    assert record != record._replace(**{first: "other"})
    # a record is a tuple of its values, so it equals a plain tuple of them
    assert record == (*kwargs.values(), *defaults.values())
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


def test_question_plan_is_a_record(qa2d_parses):
    analysis = analyze(qa2d_parses["f02"])  # "What did Liz buy at the store?"
    plan = plan_question(analysis)
    assert plan == plan_question(analysis) and plan is not plan_question(analysis)
    assert plan._fields == (
        "analysis", "config", "rules", "body", "insert_index", "insert_rules", "residual",
        "link", "flip_body", "slot",
    )
    assert repr(plan).startswith(f"QuestionPlan(analysis={analysis!r}, config={EngineConfig()!r},")
    for name in QuestionPlan._fields:
        with pytest.raises(AttributeError):
            setattr(plan, name, None)
    assert plan.slot == _frame(plan.body, plan.insert_index)
    assert plan.realize("milk")[0].text == "Liz bought milk at the store."


def test_empty_lexicon_shares_no_mutable_mapping():
    empty = VerbLexicon()
    assert empty == VerbLexicon({}, {}) and empty.past("go") == "goed"
    for forms in empty:
        with pytest.raises(TypeError):
            forms["go"] = "went"
    assert VerbLexicon().irregular_past == {}


def test_cli_import_decorates_only_the_five_dataclasses(child_env):
    code = (
        "import dataclasses, json, sys\n"
        "import qa2nli.cli\n"
        "found = sorted(\n"
        "    f'{name}.{key}'\n"
        "    for name, module in list(sys.modules.items()) if name.startswith('qa2nli')\n"
        "    for key, obj in vars(module).items()\n"
        "    if isinstance(obj, type) and dataclasses.is_dataclass(obj)\n"
        "    and obj.__module__ == name\n"
        ")\n"
        "print(json.dumps(found))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8",
        env=child_env, check=True,
    )
    assert json.loads(proc.stdout) == [
        "qa2nli.analysis.WhAnalysis",
        "qa2nli.conllu.DepSentence",
        "qa2nli.conllu.DepToken",
        "qa2nli.engine.DeclarativeCandidate",
        "qa2nli.engine.EngineConfig",
    ]
