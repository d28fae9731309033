"""Turning QA examples into premise/hypothesis pairs.

The passage becomes the premise byte for byte; hypotheses are the
declarative rewrites of question + answer. The correct answer yields an
entailed pair, incorrect options and plausible answers to unanswerable
questions yield not-entailed ones, so label and provenance line up by
construction. Examples the rewriter cannot handle are reported as skips,
never silently dropped.

qa2d and convert stream: iter_rewrites is the per-example rewrite loop
both share, iter_pairs makes each pair as its rewrite comes, and
write_declaratives and write_pairs write the rows of each command as they
are made. build_pairs and write_nli_jsonl are the same path with the
pairs collected.
"""

from __future__ import annotations

import json
import random
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .analysis import analyze
from .conllu import DepSentence, read_jsonl, require_key
from .engine import DeclarativeCandidate, EngineConfig, plan_question
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
    "iter_pairs",
    "iter_rewrites",
    "load_qa_jsonl",
    "to_json",
    "write_declaratives",
    "write_nli_jsonl",
    "write_pairs",
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


# One value as json.dumps(value, ensure_ascii=False) writes it.
to_json = json.JSONEncoder(ensure_ascii=False).encode
_PAIR_ENDS = {  # a pair's JSON line after its hypothesis, by label and provenance
    (lab, prov): ", " + to_json({"label": lab.value, "provenance": prov.value})[1:] + "\n"
    for lab in Label for prov in Provenance
}


class AnswerOption(NamedTuple):
    text: str
    correct: bool


class QAExample(NamedTuple):
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


class NliPair(NamedTuple):
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


class SkipRecord(NamedTuple):
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


class BuildResult(NamedTuple):
    pairs: tuple[NliPair, ...]
    skips: tuple[SkipRecord, ...]


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
    return [
        QAExample(ex.id, ex.question, ex.passage, ex.options, ex.answerable, sentences.get(ex.id))
        for ex in examples
    ]


def iter_rewrites(
    examples: Iterable[QAExample],
    config: EngineConfig,
    skips: list[SkipRecord],
    *,
    negatives: str = "all",
    seed: int = 0,
) -> Iterator[tuple[str, QAExample, Provenance, list[DeclarativeCandidate]]]:
    """The one per-example rewrite loop, shared by qa2d and convert.

    For each answer rewritten it yields (pair id, example, provenance,
    ranked candidates). For an example or answer with no rewrite it appends
    the SkipRecord saying why to skips, a list the caller owns, in input
    order. Each example's question is planned once and realized per answer:
    the correct one first, then the incorrect options (all, or one sampled
    as build_pairs describes), or the plausible answer of an unanswerable
    question. An incorrect option whose rank-1 candidate reads as that of
    an answer already yielded, the correct one or an earlier option, is
    skipped, so that no hypothesis is both entailed and not or written
    twice; pair ids count only the answers yielded.

    Raises:
        ValueError: negatives is not one of NEGATIVE_POLICIES, at the first
            step of the iteration.
    """
    if negatives not in NEGATIVE_POLICIES:
        raise ValueError(f"negatives must be one of {NEGATIVE_POLICIES}, got {negatives!r}")
    for example in examples:
        if example.parse is None:
            skips.append(SkipRecord(example.id, "parse", "no dependency parse for this id"))
            continue
        try:
            analysis = analyze(example.parse)
        except (NotWhQuestionError, AnalysisError) as exc:
            skips.append(SkipRecord(example.id, "analysis", str(exc)))
            continue

        if example.answerable:
            correct = example.correct_options
            if not correct:
                skips.append(SkipRecord(example.id, "options", "no correct answer"))
                continue
            wrong = example.incorrect_options
            if wrong and negatives == "one-random":
                wrong = (random.Random(f"{seed}:{example.id}").choice(wrong),)
            todo = [(correct[0], Provenance.CORRECT_ANSWER)]
            todo += [(o, Provenance.INCORRECT_OPTION) for o in wrong]
        elif example.options:
            todo = [(example.options[0], Provenance.UNANSWERABLE)]
        else:
            skips.append(
                SkipRecord(example.id, "options", "unanswerable without a plausible answer")
            )
            continue
        try:
            plan = plan_question(analysis, config)
        except TransformError as exc:  # the question itself cannot be rewritten
            skips.append(SkipRecord(example.id, "transform", str(exc)))
            continue

        n = 0
        yielded: dict[str, AnswerOption] = {}  # rank-1 text -> the answer yielded with it
        for option, provenance in todo:
            try:
                candidates = plan.realize(option.text)
            except TransformError as exc:
                skips.append(SkipRecord(example.id, "transform", str(exc), option=option.text))
                continue
            text = candidates[0].text
            earlier = yielded.get(text)
            if earlier is not None:  # one hypothesis twice, or under both labels
                if earlier.correct:
                    reason = "same hypothesis as the correct answer"
                else:
                    reason = f"same hypothesis as option {earlier.text!r}"
                skips.append(SkipRecord(example.id, "options", reason, option=option.text))
                continue
            yielded[text] = option
            yield f"{example.id}:{n}", example, provenance, candidates
            n += 1


def iter_pairs(
    examples: Iterable[QAExample],
    config: EngineConfig | None,
    skips: list[SkipRecord],
    *,
    negatives: str = "all",
    seed: int = 0,
) -> Iterator[NliPair]:
    """The pairs build_pairs describes, each made as iter_rewrites yields its
    rewrite.

    Only the rank-1 candidate is realized, whatever config.emit_alternatives
    says (None means EngineConfig()); skips fills as iter_rewrites
    describes. convert writes each pair as it comes, and build_pairs
    collects them.
    """
    config = (config or EngineConfig())._replace(emit_alternatives=1)
    rewrites = iter_rewrites(examples, config, skips, negatives=negatives, seed=seed)
    for pair_id, example, provenance, candidates in rewrites:
        label = Label.ENTAILED if provenance is Provenance.CORRECT_ANSWER else Label.NOT_ENTAILED
        yield NliPair(pair_id, example.passage, candidates[0].text, label, provenance)


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
    rewrite's word lists come from config; each hypothesis is the rank-1
    candidate, the only one realized whatever config.emit_alternatives
    says, and only a correct answer's pair is entailed. The pairs and
    skips are those the convert command writes and reports, collected.
    """
    skips: list[SkipRecord] = []
    pairs = tuple(iter_pairs(examples, config, skips, negatives=negatives, seed=seed))
    return BuildResult(pairs, tuple(skips))


def write_declaratives(
    out: TextIO, example_id: str, candidates: Sequence[DeclarativeCandidate]
) -> int:
    """Write one qa2d row per candidate, each the line json.dumps(row,
    ensure_ascii=False) gives for {id, declarative, rank, applied_rules};
    returns the number of rows written.

    The id is encoded once for all the candidates.
    """
    head = f'{{"id": {to_json(example_id)}, "declarative": '
    for cand in candidates:
        rules = to_json(cand.applied_rules)
        out.write(f'{head}{to_json(cand.text)}, "rank": {cand.rank}, "applied_rules": {rules}}}\n')
    return len(candidates)


def write_pairs(pairs: Iterable[NliPair], out: TextIO) -> dict[Provenance, int]:
    """Write each pair as the line json.dumps(pair.to_dict(), ensure_ascii=False)
    gives; returns the number of pairs of each Provenance.

    A premise is encoded once per run of pairs that share it.
    """
    counts: dict[Provenance, int] = {}
    premise = middle = None
    for pair in pairs:
        if pair.premise != premise:
            premise, middle = pair.premise, f', "premise": {to_json(pair.premise)}, "hypothesis": '
        end = _PAIR_ENDS[pair.label, pair.provenance]
        out.write(f'{{"id": {to_json(pair.id)}{middle}{to_json(pair.hypothesis)}{end}')
        counts[pair.provenance] = counts.get(pair.provenance, 0) + 1
    return counts


def write_nli_jsonl(pairs: Iterable[NliPair], path: str) -> int:
    """Write pairs as JSON lines, one object per pair, fixed key order.

    Returns the number of pairs written. Output is byte-stable for the
    same pairs.
    """
    with open(path, "w", encoding="utf-8") as fh:
        return sum(write_pairs(pairs, fh).values())
