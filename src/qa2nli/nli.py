"""Turning QA examples into premise/hypothesis pairs.

The passage becomes the premise byte for byte; hypotheses are the
declarative rewrites of question + answer. The correct answer yields an
entailed pair, incorrect options and plausible answers to unanswerable
questions yield not-entailed ones, so label and provenance line up by
construction. Examples the rewriter cannot handle are reported as skips,
never silently dropped.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .analysis import analyze
from .conllu import DepSentence
from .engine import EngineConfig, PrepositionTable, plan_question
from .errors import (
    AnalysisError,
    DatasetError,
    NotWhQuestionError,
    TransformError,
)
from .morphology import VerbLexicon

__all__ = [
    "AnswerOption",
    "BuildResult",
    "Label",
    "NliPair",
    "Provenance",
    "QAExample",
    "SkipRecord",
    "attach_parses",
    "build_pairs",
    "load_qa_jsonl",
    "write_nli_jsonl",
]

SCHEMAS = ("span", "multichoice", "unanswerable")
NEGATIVE_POLICIES = ("all", "one-random")


class Label(str, Enum):
    ENTAILED = "entailed"
    NOT_ENTAILED = "not_entailed"

    def __str__(self) -> str:  # keep file output plain
        return self.value


class Provenance(str, Enum):
    CORRECT_ANSWER = "correct_answer"
    INCORRECT_OPTION = "incorrect_option"
    UNANSWERABLE = "unanswerable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AnswerOption:
    text: str
    correct: bool


@dataclass(frozen=True)
class QAExample:
    """One QA item; parse is attached separately (see attach_parses)."""

    id: str
    question: str
    passage: str
    options: tuple[AnswerOption, ...]
    answerable: bool = True
    parse: DepSentence | None = None

    @property
    def correct_options(self) -> tuple[AnswerOption, ...]:
        return tuple(o for o in self.options if o.correct)

    @property
    def incorrect_options(self) -> tuple[AnswerOption, ...]:
        return tuple(o for o in self.options if not o.correct)


@dataclass(frozen=True)
class NliPair:
    id: str
    premise: str
    hypothesis: str
    label: Label
    provenance: Provenance

    def to_dict(self) -> dict:
        """The JSONL row for this pair, in the fixed output key order."""
        return {
            "id": self.id,
            "premise": self.premise,
            "hypothesis": self.hypothesis,
            "label": self.label.value,
            "provenance": self.provenance.value,
        }


@dataclass(frozen=True)
class SkipRecord:
    """Why an example (or one of its options) produced no pair."""

    example_id: str
    stage: str  # "parse" | "analysis" | "transform" | "options"
    reason: str
    option: str | None = None

    def to_dict(self) -> dict:
        out = {"id": self.example_id, "stage": self.stage, "reason": self.reason}
        if self.option is not None:
            out["option"] = self.option
        return out


@dataclass(frozen=True)
class BuildResult:
    pairs: tuple[NliPair, ...]
    skips: tuple[SkipRecord, ...]


def _require(obj: dict, key: str, kind: type, line_no: int):
    if key not in obj:
        raise DatasetError(f"missing key {key!r}", line_no)
    value = obj[key]
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise DatasetError(f"key {key!r} must be {kind.__name__}", line_no)
    return value


def load_qa_jsonl(path: str, schema: str) -> list[QAExample]:
    """Read QA examples from a JSON-lines file.

    Schemas:
        span         {id, question, passage, answer}
        multichoice  {id, question, passage, options: [str, ...], correct: int}
        unanswerable {id, question, passage, answerable, plausible_answer?}

    Unknown extra keys are tolerated. Blank lines are skipped.

    Raises:
        DatasetError: malformed JSON, missing/mistyped keys, duplicate ids,
            with the offending line number.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"schema must be one of {SCHEMAS}, got {schema!r}")
    examples: list[QAExample] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(obj, dict):
                raise DatasetError("each line must be a JSON object", line_no)
            ex_id = _require(obj, "id", str, line_no)
            if ex_id in seen:
                raise DatasetError(f"duplicate id {ex_id!r}", line_no)
            seen.add(ex_id)
            question = _require(obj, "question", str, line_no)
            passage = _require(obj, "passage", str, line_no)
            if schema == "span":
                answer = _require(obj, "answer", str, line_no)
                options = (AnswerOption(answer, correct=True),)
                answerable = True
            elif schema == "multichoice":
                raw = _require(obj, "options", list, line_no)
                if not raw or not all(isinstance(o, str) for o in raw):
                    raise DatasetError("'options' must be a non-empty list of strings", line_no)
                correct = _require(obj, "correct", int, line_no)
                if not 0 <= correct < len(raw):
                    raise DatasetError(f"'correct' index {correct} out of range", line_no)
                options = tuple(
                    AnswerOption(text, correct=(i == correct)) for i, text in enumerate(raw)
                )
                answerable = True
            else:  # unanswerable
                answerable = _require(obj, "answerable", bool, line_no)
                if answerable:
                    answer = _require(obj, "answer", str, line_no)
                    options = (AnswerOption(answer, correct=True),)
                else:
                    plausible = obj.get("plausible_answer")
                    if plausible is not None and not isinstance(plausible, str):
                        raise DatasetError("'plausible_answer' must be a string", line_no)
                    options = (
                        (AnswerOption(plausible, correct=False),) if plausible else ()
                    )
            examples.append(
                QAExample(
                    id=ex_id,
                    question=question,
                    passage=passage,
                    options=options,
                    answerable=answerable,
                )
            )
    return examples


def attach_parses(
    examples: Iterable[QAExample], sentences: Mapping[str, DepSentence]
) -> list[QAExample]:
    """Pair each example with the dependency parse matching its id.

    Examples without a parse keep parse=None; build_pairs reports them
    as skips.
    """
    return [replace(ex, parse=sentences.get(ex.id)) for ex in examples]


def build_pairs(
    examples: Iterable[QAExample],
    config: EngineConfig | None = None,
    *,
    negatives: str = "all",
    seed: int = 0,
    lexicon: VerbLexicon | None = None,
    table: PrepositionTable | None = None,
) -> BuildResult:
    """Convert QA examples into labeled NLI pairs.

    negatives: "all" keeps every incorrect option, "one-random" samples a
    single one per example, deterministically from the seed and example id
    (stable under re-ordering or subsetting of the input).

    Pair ids are "<example id>:<n>" with the entailed pair first.
    """
    if negatives not in NEGATIVE_POLICIES:
        raise ValueError(f"negatives must be one of {NEGATIVE_POLICIES}, got {negatives!r}")
    config = config or EngineConfig()
    lexicon = lexicon or VerbLexicon.bundled()
    table = table or PrepositionTable.bundled()

    pairs: list[NliPair] = []
    skips: list[SkipRecord] = []

    for example in examples:
        if example.parse is None:
            skips.append(SkipRecord(example.id, "parse", "no dependency parse for this id"))
            continue
        try:
            analysis = analyze(example.parse)
        except (NotWhQuestionError, AnalysisError) as exc:
            skips.append(SkipRecord(example.id, "analysis", str(exc)))
            continue
        plan = plan_question(analysis, config, lexicon=lexicon)

        if example.answerable:
            correct = example.correct_options
            if not correct:
                skips.append(SkipRecord(example.id, "options", "no correct answer"))
                continue
            wrong = example.incorrect_options
            if wrong and negatives == "one-random":
                rng = random.Random(f"{seed}:{example.id}")
                wrong = (rng.choice(wrong),)
            todo = [(correct[0], Label.ENTAILED, Provenance.CORRECT_ANSWER)]
            todo += [(o, Label.NOT_ENTAILED, Provenance.INCORRECT_OPTION) for o in wrong]
        else:
            if not example.options:
                skips.append(
                    SkipRecord(example.id, "options", "unanswerable without a plausible answer")
                )
                continue
            todo = [(example.options[0], Label.NOT_ENTAILED, Provenance.UNANSWERABLE)]

        n = 0
        for option, label, provenance in todo:
            try:
                hypothesis = plan.realize(option.text, table=table)[0].text
            except TransformError as exc:
                skips.append(
                    SkipRecord(example.id, "transform", str(exc), option=option.text)
                )
                continue
            pairs.append(
                NliPair(
                    id=f"{example.id}:{n}",
                    premise=example.passage,
                    hypothesis=hypothesis,
                    label=label,
                    provenance=provenance,
                )
            )
            n += 1

    return BuildResult(pairs=tuple(pairs), skips=tuple(skips))


def write_nli_jsonl(pairs: Iterable[NliPair], path: str) -> int:
    """Write pairs as JSON lines, one object per pair, fixed key order.

    Returns the number of pairs written. Output is byte-stable for the
    same pairs.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair.to_dict(), ensure_ascii=False) + "\n")
            count += 1
    return count
