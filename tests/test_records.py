"""The contract of the package's immutable records.

Seventeen records are NamedTuples: each keeps its constructor (field order,
keywords, defaults), its repr text, equality by value and immutability.
DepToken and DeclarativeCandidate check their values, and so do
DepSentence and EngineConfig, which are not tuples: DepSentence keeps an
index beside its fields, and EngineConfig leaves its word lists out of its
hash and repr. Every record offers _fields and _replace, and no way to
build one skips its checks. A fresh interpreter checks that start-up loads
no dataclass machinery.
"""

import copy
import pickle
import subprocess
import sys

import pytest

from qa2nli.analysis import QuestionType, WhAnalysis, analyze
from qa2nli.artifacts import CorpusReport, LengthStats, PmiEntry, PmiTable
from qa2nli.conllu import DepSentence, DepToken
from qa2nli.engine import (
    DeclarativeCandidate,
    EngineConfig,
    PrepositionTable,
    QuestionPlan,
    _frame,
    plan_question,
)
from qa2nli.errors import ConlluStructureError
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

_OPTION = AnswerOption("milk", True)
_PAIR = NliPair("f02:0", "p", "Liz bought milk.", Label.ENTAILED, Provenance.CORRECT_ANSWER)
_SKIP = SkipRecord("f02", "options", "r")
# "Liz bought milk", one token per line: id, form, lemma, upos, xpos, head, deprel
_LIZ = DepToken(1, "Liz", "Liz", "PROPN", None, 2, "nsubj")
_BOUGHT = DepToken(2, "bought", "buy", "VERB", "VBD", 0, "root")
_MILK = DepToken(3, "milk", "milk", "NOUN", None, 2, "obj")
_SENTENCE = DepSentence((_LIZ, _BOUGHT, _MILK), "Liz bought milk", "s1")
_TOKENS_REPR = (
    "(DepToken(id=1, form='Liz', lemma='Liz', upos='PROPN', xpos=None, head=2, deprel='nsubj'), "
    "DepToken(id=2, form='bought', lemma='buy', upos='VERB', xpos='VBD', head=0, deprel='root'), "
    "DepToken(id=3, form='milk', lemma='milk', upos='NOUN', xpos=None, head=2, deprel='obj'))"
)
_SENTENCE_REPR = f"DepSentence(tokens={_TOKENS_REPR}, text='Liz bought milk', sent_id='s1')"
_TABLE = PmiTable({"entailed": (PmiEntry("not", 0.5, 3, 30.0),)}, 100.0, 7)
_LENGTHS = LengthStats({5: 2}, 5.0, 5.0)
_CANDIDATE = DeclarativeCandidate(
    "Liz bought milk.", ("Liz", "bought", "milk", "."), ("realize",), 1
)

# (class, keyword arguments, the defaults left out, repr of the instance)
RECORDS = [
    (AnswerOption, {"text": "milk", "correct": True}, {},
     "AnswerOption(text='milk', correct=True)"),
    (QAExample, {"id": "f02", "question": "q", "passage": "p", "options": (_OPTION,)},
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
    (PrepositionTable, {"prepositions": frozenset({"in"})},
     dict.fromkeys(PrepositionTable._fields[1:], frozenset()),
     "PrepositionTable(prepositions=frozenset({'in'}), temporal_adverbs=frozenset(), "
     "place_adverbs=frozenset(), months=frozenset(), weekdays=frozenset(), seasons=frozenset(), "
     "time_words=frozenset(), motion_verbs=frozenset(), at_locations=frozenset(), "
     "article_orgs=frozenset())"),
    (DepToken, {"id": 2, "form": "bought", "lemma": "buy", "upos": "VERB", "xpos": "VBD",
                "head": 0, "deprel": "root"}, {},
     "DepToken(id=2, form='bought', lemma='buy', upos='VERB', xpos='VBD', head=0, deprel='root')"),
    (DeclarativeCandidate, {"text": "Liz bought milk.", "tokens": ("Liz", "bought", "milk", "."),
                            "applied_rules": ("realize",), "rank": 1}, {},
     "DeclarativeCandidate(text='Liz bought milk.', tokens=('Liz', 'bought', 'milk', '.'), "
     "applied_rules=('realize',), rank=1)"),
    (WhAnalysis, {"question": _SENTENCE, "wh_token": 3, "wh_phrase": (3, 3),
                  "qtype": QuestionType.WHAT, "root": 2, "aux": None, "copula": None,
                  "verbs": (), "subject": 1, "wh_attachment": 2, "dangling_preps": (),
                  "subject_wh": False, "wh_head": 3}, {},
     f"WhAnalysis(question={_SENTENCE_REPR}, wh_token=3, wh_phrase=(3, 3), "
     "qtype=<QuestionType.WHAT: 'What'>, root=2, aux=None, copula=None, verbs=(), subject=1, "
     "wh_attachment=2, dangling_preps=(), subject_wh=False, wh_head=3)"),
    (CorpusReport, {"table": _TABLE, "lengths": {"entailed": _LENGTHS}, "overlap": None}, {},
     f"CorpusReport(table={_TABLE!r}, lengths={{'entailed': {_LENGTHS!r}}}, overlap=None)"),
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
    # the first field of DepToken and DeclarativeCandidate has a check "other" fails
    second = cls._fields[1]
    assert record != record._replace(**{second: "other"})
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
        "link", "flip", "slot",
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


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def test_dep_sentence_is_a_record():
    assert DepSentence._fields == ("tokens", "text", "sent_id")
    assert repr(_SENTENCE) == _SENTENCE_REPR  # the children index is left out
    twin = DepSentence(_SENTENCE.tokens, "Liz bought milk", "s1")
    assert twin == _SENTENCE and twin is not _SENTENCE and hash(twin) == hash(_SENTENCE)
    assert _SENTENCE != ((_LIZ, _BOUGHT, _MILK), "Liz bought milk", "s1")  # not a tuple
    renamed = _SENTENCE._replace(sent_id="s2")
    assert renamed != _SENTENCE and (renamed.sent_id, _SENTENCE.sent_id) == ("s2", "s1")
    assert renamed.tokens == _SENTENCE.tokens and renamed.child_ids(2) == (1, 3)
    _assert_immutable_and_copyable(_SENTENCE, ("_children",))


def test_engine_config_is_a_record():
    assert EngineConfig._fields == ("copy_wh_phrase", "emit_alternatives", "lexicon", "table")
    default = EngineConfig()
    assert repr(default) == "EngineConfig(copy_wh_phrase=False, emit_alternatives=1)"
    assert default == EngineConfig(False, 1, VerbLexicon.bundled(), PrepositionTable.bundled())
    assert default != (False, 1, VerbLexicon.bundled(), PrepositionTable.bundled())  # not a tuple
    wider = default._replace(emit_alternatives=3)
    assert (wider.emit_alternatives, wider.copy_wh_phrase, wider.table) == (3, False, default.table)
    assert wider != default and repr(wider).endswith("emit_alternatives=3)")
    # the word lists take part in == but not in hash or repr
    plain = default._replace(lexicon=VerbLexicon())
    assert plain != default and hash(plain) == hash(default) and repr(plain) == repr(default)
    _assert_immutable_and_copyable(default, ())


def _assert_immutable_and_copyable(record, private: tuple[str, ...]) -> None:
    for name in (*record._fields, *private, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")
    copies = [pickle.loads(pickle.dumps(record, p)) for p in _PROTOCOLS]
    for twin in (*copies, copy.deepcopy(record), record._replace()):
        assert twin == record and twin is not record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


# (a valid record, changes that break one of its checks, the error)
_BAD = [
    (_BOUGHT, {"id": 0}, ValueError),
    (_BOUGHT, {"head": -1}, ValueError),
    (_BOUGHT, {"head": 2}, ValueError),
    (_BOUGHT, {"form": ""}, ValueError),
    (_CANDIDATE, {"rank": 0}, ValueError),
    (_CANDIDATE, {"text": "Who bought milk?."}, ValueError),
    (_CANDIDATE, {"text": "Liz bought milk"}, ValueError),
    (EngineConfig(), {"emit_alternatives": 0}, ValueError),
    (_SENTENCE, {"tokens": (_LIZ._replace(head=3), _BOUGHT, _MILK._replace(head=1))},
     ConlluStructureError),
    (_SENTENCE, {"tokens": (_LIZ, _BOUGHT, _MILK._replace(head=0))}, ConlluStructureError),
]
_BAD_IDS = [
    "DepToken-id-0", "DepToken-head-negative", "DepToken-own-head", "DepToken-empty-form",
    "DeclarativeCandidate-rank-0", "DeclarativeCandidate-question-mark",
    "DeclarativeCandidate-no-full-stop", "EngineConfig-no-alternatives", "DepSentence-cycle",
    "DepSentence-two-roots",
]


def _forged(cls, values: dict):
    """A cls holding values, built without its checks, as a pickle made
    elsewhere could hold it."""
    if issubclass(cls, tuple):
        return tuple.__new__(cls, values.values())
    forged = object.__new__(cls)
    if cls is DepSentence:  # it stores the columns after id, not the tokens
        _, *columns = zip(*values["tokens"])
        values = dict(zip(DepSentence.__slots__, columns), text=values["text"],
                      sent_id=values["sent_id"])
    for name, value in values.items():
        object.__setattr__(forged, name, value)
    return forged


@pytest.mark.parametrize(("record", "changes", "error"), _BAD, ids=_BAD_IDS)
def test_checked_record_refuses_bad_values_on_every_path(record, changes, error):
    values = {**{name: getattr(record, name) for name in record._fields}, **changes}
    with pytest.raises(error):
        type(record)(**values)
    with pytest.raises(error):
        record._replace(**changes)
    forged = _forged(type(record), values)
    for protocol in _PROTOCOLS:
        data = pickle.dumps(forged, protocol)
        with pytest.raises(error):
            pickle.loads(data)
    with pytest.raises(error):
        copy.deepcopy(forged)


# The dataclasses module costs every command's start-up its import and the
# inspect module under it (ast, dis, tokenize), and each decorated class an
# exec of generated source. The string module compiles string.Template's
# pattern at import, and a module-level regex is compiled on every import
# whether or not a call reads it. Reading a file as "utf-8-sig" imports
# that codec's module on its first open.
_DATACLASS_MACHINERY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "code",
    [
        "import qa2nli.cli",
        # what every command's set-up runs: the bundled word lists
        "import qa2nli; qa2nli.VerbLexicon.bundled(); qa2nli.PrepositionTable.bundled()",
    ],
    ids=["cli", "word-lists"],
)
def test_start_up_loads_no_dataclass_machinery(child_env, code):
    script = (
        f"import sys\nbefore = set(sys.modules)\n{code}\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "import re\n"
        "print(*sorted(f'{name}.{key}' for name, module in list(sys.modules.items())\n"
        "    if name.startswith('qa2nli') for key, value in vars(module).items()\n"
        "    if isinstance(value, re.Pattern)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8",
        env=child_env, check=True,
    )
    modules, patterns = proc.stdout.split("\n")[:2]
    loaded = set(modules.split())
    assert {"qa2nli.conllu", "qa2nli.engine"} <= loaded
    assert not loaded & _DATACLASS_MACHINERY, loaded & _DATACLASS_MACHINERY
    assert "string" not in loaded
    assert "encodings.utf_8_sig" not in loaded
    assert patterns == ""
