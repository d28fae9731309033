"""qa2nli: rule-based conversion of QA datasets into NLI corpora.

The pipeline: parse-annotated wh questions are analyzed (analysis),
rewritten with an answer into declarative sentences (engine), paired with
their passages as labeled premise/hypothesis examples (nli), scored
against references (metrics), and checked for annotation artifacts
(artifacts). The conllu module reads and writes the dependency format
everything else consumes.
"""

from .analysis import QuestionType, WhAnalysis, analyze, classify_question
from .artifacts import LengthStats, PmiEntry, PmiTable, length_histogram, pmi, word_overlap
from .conllu import (
    DepSentence,
    DepToken,
    index_by_sent_id,
    load_conllu,
    parse_conllu,
    to_conllu,
)
from .engine import (
    DeclarativeCandidate,
    EngineConfig,
    PrepositionTable,
    QuestionPlan,
    insert_article,
    plan_question,
    realize,
    transform,
    undo_inversion,
)
from .errors import (
    AnalysisError,
    ConlluFormatError,
    ConlluStructureError,
    DatasetError,
    NotWhQuestionError,
    PipelineError,
    TransformError,
)
from .metrics import (
    EvalRecord,
    EvalReport,
    bleu_corpus,
    evaluate,
    exact_match,
    load_eval_records,
    normalize,
    sentence_bleu,
    topk_match,
)
from .morphology import VerbLexicon, reinflect
from .nli import (
    AnswerOption,
    BuildResult,
    Label,
    NliPair,
    Provenance,
    QAExample,
    SkipRecord,
    attach_parses,
    build_pairs,
    load_qa_jsonl,
    write_nli_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AnswerOption",
    "BuildResult",
    "ConlluFormatError",
    "ConlluStructureError",
    "DatasetError",
    "DeclarativeCandidate",
    "DepSentence",
    "DepToken",
    "EngineConfig",
    "EvalRecord",
    "EvalReport",
    "Label",
    "LengthStats",
    "NliPair",
    "NotWhQuestionError",
    "PipelineError",
    "PmiEntry",
    "PmiTable",
    "PrepositionTable",
    "Provenance",
    "QAExample",
    "QuestionPlan",
    "QuestionType",
    "SkipRecord",
    "TransformError",
    "VerbLexicon",
    "WhAnalysis",
    "analyze",
    "attach_parses",
    "bleu_corpus",
    "build_pairs",
    "classify_question",
    "evaluate",
    "exact_match",
    "index_by_sent_id",
    "insert_article",
    "length_histogram",
    "load_conllu",
    "load_eval_records",
    "load_qa_jsonl",
    "normalize",
    "parse_conllu",
    "plan_question",
    "pmi",
    "realize",
    "reinflect",
    "sentence_bleu",
    "to_conllu",
    "topk_match",
    "transform",
    "undo_inversion",
    "word_overlap",
    "write_nli_jsonl",
]
