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
from typing import Iterable, Iterator, Mapping

from .analysis import WhAnalysis, analyze
from .conllu import DepSentence, _read_lines
from .engine import EngineConfig, plan_question
from .errors import (
    AnalysisError,
    DatasetError,
    NotWhQuestionError,
    TransformError,
)

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


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    r"""Yield (line number, object) for each non-blank line of a JSONL file.

    The file is read one line at a time; lines split only at "\n", "\r\n"
    and "\r".

    Raises:
        DatasetError: a line is not valid UTF-8, not valid JSON or not a
            JSON object.
    """
    for line_no, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON ({exc.msg})", line_no, path) from exc
        if not isinstance(obj, dict):
            raise DatasetError("expected a JSON object", line_no, path)
        yield line_no, obj


def require_key(obj: dict, key: str, kind: type, line_no: int, path: str):
    """obj[key], checked to be present and of type kind (bool is not an int)."""
    if key not in obj:
        raise DatasetError(f"missing key {key!r}", line_no, path)
    value = obj[key]
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise DatasetError(f"key {key!r} must be {kind.__name__}", line_no, path)
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
            with the path and the offending line number.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"schema must be one of {SCHEMAS}, got {schema!r}")
    examples: list[QAExample] = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        ex_id = require_key(obj, "id", str, line_no, path)
        if ex_id in seen:
            raise DatasetError(f"duplicate id {ex_id!r}", line_no, path)
        seen.add(ex_id)
        question = require_key(obj, "question", str, line_no, path)
        passage = require_key(obj, "passage", str, line_no, path)
        answerable = True
        if schema == "unanswerable":
            answerable = require_key(obj, "answerable", bool, line_no, path)
        if schema == "multichoice":
            raw = require_key(obj, "options", list, line_no, path)
            if not raw or not all(isinstance(o, str) for o in raw):
                raise DatasetError("'options' must be a non-empty list of strings", line_no, path)
            correct = require_key(obj, "correct", int, line_no, path)
            if not 0 <= correct < len(raw):
                raise DatasetError(f"'correct' index {correct} out of range", line_no, path)
            options = tuple(
                AnswerOption(text, correct=(i == correct)) for i, text in enumerate(raw)
            )
        elif answerable:  # span, or an answerable unanswerable-schema item
            answer = require_key(obj, "answer", str, line_no, path)
            options = (AnswerOption(answer, correct=True),)
        else:
            plausible = obj.get("plausible_answer")
            if plausible is not None and not isinstance(plausible, str):
                raise DatasetError("'plausible_answer' must be a string", line_no, path)
            options = (AnswerOption(plausible, correct=False),) if plausible else ()
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


def analyze_example(example: QAExample) -> WhAnalysis | SkipRecord:
    """The wh analysis of an example's question, or the skip saying why
    there is none (stage "parse" or "analysis")."""
    if example.parse is None:
        return SkipRecord(example.id, "parse", "no dependency parse for this id")
    try:
        return analyze(example.parse)
    except (NotWhQuestionError, AnalysisError) as exc:
        return SkipRecord(example.id, "analysis", str(exc))


def build_pairs(
    examples: Iterable[QAExample],
    config: EngineConfig | None = None,
    *,
    negatives: str = "all",
    seed: int = 0,
) -> BuildResult:
    """Convert QA examples into labeled NLI pairs.

    negatives: "all" keeps every incorrect option, "one-random" samples a
    single one per example, deterministically from the seed and example id
    (stable under re-ordering or subsetting of the input).

    Pair ids are "<example id>:<n>" with the entailed pair first. The
    rewrite's word lists come from config.
    """
    if negatives not in NEGATIVE_POLICIES:
        raise ValueError(f"negatives must be one of {NEGATIVE_POLICIES}, got {negatives!r}")
    config = config or EngineConfig()

    pairs: list[NliPair] = []
    skips: list[SkipRecord] = []

    for example in examples:
        analysis = analyze_example(example)
        if isinstance(analysis, SkipRecord):
            skips.append(analysis)
            continue

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
        try:
            plan = plan_question(analysis, config)
        except TransformError as exc:  # the question itself cannot be rewritten
            skips.append(SkipRecord(example.id, "transform", str(exc)))
            continue

        n = 0
        for option, label, provenance in todo:
            try:
                hypothesis = plan.realize(option.text)[0].text
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
