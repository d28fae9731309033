"""Rule-based rewriting of analyzed wh questions into declarative sentences.

The pipeline, in order: undo subject-auxiliary inversion (merging do-support
auxiliaries back into the verb), delete the wh phrase, substitute the answer
at the phrase's argument position with preposition and article adjustments,
and realize the token sequence as a sentence. Each candidate carries an
ordered audit trail of the rules that fired.

Only the answer substitution and realization depend on the answer.
plan_question does everything else once per question and returns a
QuestionPlan; its realize method then rewrites one answer at a time.
transform does both steps for a single answer.

Where the answer lands depends on what the wh phrase was doing:

* subject questions splice the answer in place of the phrase;
* a stranded preposition or particle keeps its position and the answer
  follows it ("Olga sent a letter to _ last week");
* copular identity questions put the answer in predicate position
  ("Her dog's name is _");
* argument functions (obj, attr, ...) follow the attachment predicate and
  its particles directly;
* adjunct functions (advmod, obl, ...) go after the attachment predicate's
  subtree, skipping trailing adverbial clauses, so "Sam went _ to buy milk"
  and "Johnson crashed into the wall _" both come out right.

Inserted prepositions come from the answer itself (a pied-piped preposition
deleted with the wh phrase is re-emitted), else from the When/Where lookup
table; a dangling preposition always beats the table.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .analysis import QuestionType, WhAnalysis
from .conllu import DepSentence
from .errors import TransformError
from .morphology import VerbLexicon, reinflect

__all__ = [
    "DeclarativeCandidate",
    "EngineConfig",
    "PrepositionTable",
    "QuestionPlan",
    "insert_article",
    "plan_question",
    "realize",
    "reinflect",
    "select_preposition",
    "transform",
    "undo_inversion",
]

_ARG_BASES = {"obj", "iobj", "ccomp", "attr", "dobj", "acomp", "oprd", "dep"}
_CLAUSE_SKIP_BASES = {"advcl", "parataxis"}
_DAY_RE = re.compile(r"\d{1,2}(st|nd|rd|th)?")
_SLASH_DATE_RE = re.compile(r"\d{1,2}[/.-]\d{1,2}[/.-]\d{2,4}")
_CLOCK_RE = re.compile(r"\b\d{1,2}(:\d{2})?\s*([ap]\.?m\.?)(\W|$)")
_DECADE_RE = re.compile(r"(\d{4}|\d{2})s")
_YEAR_RE = re.compile(r"[12]\d{3}")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the rewrite.

    copy_wh_phrase keeps residual nouns of Which/How phrases after the
    answer ("How many people ..." -> "50 people ..."). emit_alternatives
    caps how many ranked candidates transform may return; extra candidates
    vary the preposition in table order, or flip a copular identity
    sentence when the answer starts with a capitalized phrase.
    article_exceptions overrides the bundled organization list used by
    insert_article (None means bundled).
    """

    copy_wh_phrase: bool = False
    emit_alternatives: int = 1
    article_exceptions: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.emit_alternatives < 1:
            raise ValueError("emit_alternatives must be >= 1")


@dataclass(frozen=True)
class DeclarativeCandidate:
    """One declarative rewrite, rank 1 being the engine's best guess."""

    text: str
    tokens: tuple[str, ...]
    applied_rules: tuple[str, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if "?" in self.text:
            raise ValueError("candidate text may not contain '?'")
        if not self.text.endswith("."):
            raise ValueError("candidate text must end with '.'")


class PrepositionTable:
    """Word lists driving preposition selection, loaded from a TSV file.

    Rule application is first-match in the order coded in when_options /
    where_options; the file only supplies vocabulary. Matching is
    case-insensitive except article_orgs.
    """

    _LIST_KEYS = (
        "preposition",
        "temporal_adverb",
        "place_adverb",
        "month",
        "weekday",
        "season",
        "time_word",
        "motion_verb",
        "at_location",
        "article_org",
    )

    def __init__(self, lists: dict[str, frozenset[str]]):
        unknown = set(lists) - set(self._LIST_KEYS)
        if unknown:
            raise ValueError(f"unknown preposition-table keys: {sorted(unknown)}")
        self.prepositions = lists.get("preposition", frozenset())
        self.temporal_adverbs = lists.get("temporal_adverb", frozenset())
        self.place_adverbs = lists.get("place_adverb", frozenset())
        self.months = lists.get("month", frozenset())
        self.weekdays = lists.get("weekday", frozenset())
        self.seasons = lists.get("season", frozenset())
        self.time_words = lists.get("time_word", frozenset())
        self.motion_verbs = lists.get("motion_verb", frozenset())
        self.at_locations = lists.get("at_location", frozenset())
        self.article_orgs = lists.get("article_org", frozenset())

    @classmethod
    def _from_lines(cls, lines: Iterable[str], source: str) -> "PrepositionTable":
        lists: dict[str, set[str]] = {}
        for line_no, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{source}: line {line_no}: expected key<TAB>value")
            key, value = parts
            if key != "article_org":
                value = value.lower()
            lists.setdefault(key, set()).add(value)
        return cls({k: frozenset(v) for k, v in lists.items()})

    @classmethod
    def from_file(cls, path: str) -> "PrepositionTable":
        with open(path, encoding="utf-8") as fh:
            return cls._from_lines(fh, path)

    @classmethod
    def bundled(cls) -> "PrepositionTable":
        return _bundled_table()

    # -- rule blocks ------------------------------------------------------

    def starts_suppressed(self, answer: str, qtype: QuestionType) -> bool:
        """True when the answer already opens with a preposition, or with a
        standalone time/place adverb matching the question type."""
        toks = _match_tokens(answer)
        if not toks:
            return False
        first = toks[0]
        if first in self.prepositions:
            return True
        if qtype is QuestionType.WHEN and first in self.temporal_adverbs:
            return True
        if qtype is QuestionType.WHERE and first in self.place_adverbs:
            return True
        return False

    def when_options(self, answer: str) -> list[str]:
        """Ordered candidate prepositions for a time answer.

        First match decides rank 1: full date -> on, weekday -> on, clock
        time -> at, then month/season/decade/year -> in, default -> in.
        """
        toks = _match_tokens(answer)
        if not toks or self.starts_suppressed(answer, QuestionType.WHEN):
            return []
        lower = answer.lower()
        options: list[str] = []
        has_month = any(t in self.months for t in toks)
        has_day = any(_DAY_RE.fullmatch(t) for t in toks)
        if (has_month and has_day) or any(_SLASH_DATE_RE.fullmatch(t) for t in toks):
            options.append("on")
        if any(t in self.weekdays for t in toks):
            options.append("on")
        if (
            _CLOCK_RE.search(lower)
            or "o'clock" in lower
            or any(t in self.time_words for t in toks)
        ):
            options.append("at")
        if has_month or any(t in self.seasons for t in toks):
            options.append("in")
        if any(_DECADE_RE.fullmatch(t) or _YEAR_RE.fullmatch(t) for t in toks):
            options.append("in")
        options.append("in")
        return _dedupe(options)

    def where_options(self, answer: str, attachment_lemma: str | None) -> list[str]:
        """Ordered candidate prepositions for a place answer.

        Motion predicates take "to", institutions and point locations "at",
        everything else "in".
        """
        toks = _match_tokens(answer)
        if not toks or self.starts_suppressed(answer, QuestionType.WHERE):
            return []
        options: list[str] = []
        if attachment_lemma and attachment_lemma.lower() in self.motion_verbs:
            options.append("to")
        if any(t in self.at_locations for t in toks):
            options.append("at")
        options.append("in")
        return _dedupe(options)


def _match_tokens(text: str) -> list[str]:
    return [t for t in (tok.strip(string.punctuation).lower() for tok in text.split()) if t]


def _dedupe(items: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


@lru_cache(maxsize=1)
def _bundled_table() -> PrepositionTable:
    data = (
        resources.files("qa2nli")
        .joinpath("data/prepositions.tsv")
        .read_text(encoding="utf-8")
    )
    return PrepositionTable._from_lines(data.splitlines(), "prepositions.tsv")


def insert_article(answer: str, exceptions: Iterable[str] | None = None) -> str:
    """Prepend "the" to bare single-token organization answers.

    "UN" -> "the UN"; "WHO" (not listed) and "the UN" (already articled,
    multi-token) pass through, so the operation is idempotent.
    """
    orgs = frozenset(exceptions) if exceptions is not None else PrepositionTable.bundled().article_orgs
    bare = answer.strip()
    if bare and " " not in bare and bare in orgs:
        return "the " + bare
    return answer


def select_preposition(
    qtype: QuestionType,
    analysis: WhAnalysis,
    answer: str,
    table: PrepositionTable | None = None,
) -> str | None:
    """The preposition that should link the answer into the sentence.

    A dangling preposition from the analysis wins over the table; When and
    Where otherwise consult the table; other types take no preposition.
    Returns None when nothing applies or the answer already starts with a
    preposition or standalone adverb.
    """
    options, _ = _preposition_plan(qtype, analysis, answer, table or PrepositionTable.bundled())
    return options[0] if options else None


def _preposition_plan(
    qtype: QuestionType,
    analysis: WhAnalysis,
    answer: str,
    table: PrepositionTable,
) -> tuple[list[str], str]:
    """Ordered preposition options plus the source kind of option 0.

    Source is one of "stranded" (token already in the sentence; nothing to
    insert, the answer just follows it), "pied" (deleted with the wh phrase,
    re-emit before the answer), "table", or "none".
    """
    sent = analysis.question
    if analysis.dangling_preps:
        prep_tok = sent.token(analysis.dangling_preps[-1])  # rightmost wins
        start, end = analysis.wh_phrase
        if start <= prep_tok.id <= end:
            if table.starts_suppressed(answer, qtype):
                return [], "none"
            return [prep_tok.form.lower()], "pied"
        return [prep_tok.form], "stranded"
    if qtype is QuestionType.WHEN:
        return table.when_options(answer), "table"
    if qtype is QuestionType.WHERE:
        attachment = sent.token(analysis.wh_attachment)
        lemma = attachment.lemma or attachment.form.lower()
        return table.where_options(answer, lemma), "table"
    return [], "none"


# -- sequencing --------------------------------------------------------------


def _deinverted(
    analysis: WhAnalysis, lexicon: VerbLexicon
) -> tuple[list[int], dict[int, str], list[str]]:
    """Token ids in declarative order, surface-form overrides, rule trail."""
    sent = analysis.question
    seq = [t.id for t in sent.tokens if t.form != "?"]
    forms: dict[int, str] = {}
    rules: list[str] = []
    if analysis.subject_wh:
        return seq, forms, rules  # subject questions are not inverted
    target_id = analysis.aux if analysis.aux is not None else analysis.copula
    if target_id is None:
        return seq, forms, rules
    target = sent.token(target_id)

    if analysis.aux is not None and (target.lemma or target.form.lower()) == "do":
        root_tok = sent.token(analysis.root)
        seq.remove(target_id)
        inflected = reinflect(root_tok.lemma or root_tok.form, target.form, lexicon)
        forms[root_tok.id] = inflected
        rules.append(f"do_support:{target.form.lower()}->{inflected}")
        return seq, forms, rules

    if analysis.subject is None:
        # Inverted aux with no subject to tuck it behind: keep the original
        # order rather than guessing.
        rules.append("inversion_fallback:no_subject")
        return seq, forms, rules

    subj_span = sent.subtree_ids(analysis.subject)
    if target_id < min(subj_span):
        seq.remove(target_id)
        seq.insert(seq.index(max(subj_span)) + 1, target_id)
        rules.append(f"deinvert:{target.form.lower()}_after_subject")
    return seq, forms, rules


def undo_inversion(analysis: WhAnalysis, lexicon: VerbLexicon | None = None) -> list[str]:
    """Surface forms of the question in declarative order.

    Do-support auxiliaries disappear into the re-inflected verb; other
    auxiliaries and copulas move behind the full subject phrase. The wh
    phrase is still present; deleting it is the next pipeline step.
    """
    seq, forms, _ = _deinverted(analysis, lexicon or VerbLexicon.bundled())
    sent = analysis.question
    return [forms.get(tid, sent.token(tid).form) for tid in seq]


def _span_head_id(sent: DepSentence, span: tuple[int, int]) -> int:
    ids = set(range(span[0], span[1] + 1))
    external = [tid for tid in ids if sent.token(tid).head not in ids]
    if len(external) == 1:
        return external[0]
    # Several links leave the span: the head is the one covering most of it.
    return max(
        external,
        key=lambda tid: (len(sent.subtree_ids(tid) & ids), -tid),
    )


def _clean_answer(answer: str) -> str:
    a = answer.strip()
    while a and a[-1] in ",;:!?":
        a = a[:-1].rstrip()
    if a.endswith("."):
        last = a.split()[-1]
        if "." not in last[:-1]:  # not an abbreviation like "a.m."
            a = a[:-1].rstrip()
    return a


def realize(tokens: Sequence[str]) -> str:
    """Join tokens into a sentence.

    Single spaces, except none before closing punctuation / clitics
    (, . ; : ! % ) 's n't ...) and none after an opening bracket. The first
    alphabetic character is uppercased and a terminal period appended if
    missing. Question marks never survive into the output.

    Raises:
        ValueError: no tokens left to realize.
    """
    toks = [t for t in tokens if t and t != "?"]
    if not toks:
        raise ValueError("nothing to realize")
    pieces = [toks[0]]
    for tok in toks[1:]:
        glue = " "
        if tok in {",", ".", ";", ":", "!", "%", ")", "]", "}"} or tok.startswith("'") or tok == "n't":
            glue = ""
        elif pieces[-1] and pieces[-1][-1] in "([{":
            glue = ""
        pieces.append(glue + tok)
    text = "".join(pieces)
    for i, ch in enumerate(text):
        if ch.isalpha():
            text = text[:i] + ch.upper() + text[i + 1 :]
            break
    if not text.endswith("."):
        text += "."
    return text


def _insertion_site(analysis: WhAnalysis, seq: list[int]) -> tuple[int, str]:
    """Index in seq where an argument or adjunct answer goes, and its rule."""
    sent = analysis.question
    attach_id = analysis.wh_attachment
    head_tok = sent.token(_span_head_id(sent, analysis.wh_phrase))
    if head_tok.deprel.split(":", 1)[0] in _ARG_BASES and attach_id in seq:
        index = seq.index(attach_id) + 1
        while index < len(seq):
            nxt = sent.token(seq[index])
            if nxt.head == attach_id and nxt.deprel == "compound:prt":
                index += 1
            else:
                break
        return index, "insert:after_predicate"
    members = set(sent.subtree_ids(attach_id))
    for child in sent.children(attach_id):
        if child.deprel.split(":", 1)[0] in _CLAUSE_SKIP_BASES:
            members -= sent.subtree_ids(child.id)
    positions = [i for i, tid in enumerate(seq) if tid in members]
    return (positions[-1] + 1 if positions else len(seq)), "insert:attachment_end"


def _candidate(tokens: list[str], rules: tuple[str, ...], rank: int) -> DeclarativeCandidate:
    try:
        text = realize(tokens)
    except ValueError as exc:
        raise TransformError(str(exc)) from exc
    return DeclarativeCandidate(
        text=text,
        tokens=tuple(t for t in tokens if t and t != "?"),
        applied_rules=(*rules, "realize"),
        rank=rank,
    )


@dataclass(frozen=True)
class QuestionPlan:
    """The answer-independent half of a rewrite, built by plan_question.

    A plan is built once per question and realized once per answer, so a
    multichoice item pays for de-inversion, wh-phrase deletion and the
    insertion-site search once rather than once per option.
    """

    analysis: WhAnalysis
    config: EngineConfig
    rules: tuple[str, ...]  # qtype, inversion, copy_wh_nouns, delete_wh_phrase
    body: tuple[str, ...]  # declarative-order forms, wh phrase deleted
    insert_index: int  # where in body the answer goes
    insert_rules: tuple[str, ...]  # the insert:* rule, after prep:*(stranded)
    residual: tuple[str, ...]  # copied Which/How nouns, placed after the answer
    answer_prep: bool  # False for subject and stranded-preposition questions
    flip_body: tuple[str, ...] | None  # copula + subject for "Answer is X's Y."

    def realize(
        self, answer: str, *, table: PrepositionTable | None = None
    ) -> list[DeclarativeCandidate]:
        """Ranked declaratives for one answer, exactly as transform gives them.

        Raises:
            TransformError: empty answer, or nothing realizable remained.
        """
        table = table or PrepositionTable.bundled()
        analysis, config = self.analysis, self.config
        answer_clean = _clean_answer(answer)
        if not answer_clean:
            raise TransformError("answer is empty after trimming")
        articled = insert_article(
            answer_clean,
            config.article_exceptions
            if config.article_exceptions is not None
            else table.article_orgs,
        )
        rules = self.rules + ("article:the",) if articled != answer_clean else self.rules
        answer_tokens = articled.split()
        options, source = _preposition_plan(analysis.qtype, analysis, answer_clean, table)

        tokens, extra = self._splice(answer_tokens, options[0] if options else None, source)
        if self.answer_prep and not options:
            extra = (*extra, "prep:none")
        candidates = [_candidate(tokens, rules + extra, 1)]
        if config.emit_alternatives > 1:
            if self.flip_body is not None and answer_tokens[0][:1].isupper():
                candidates.append(
                    _candidate(
                        [*answer_tokens, *self.flip_body],
                        rules + ("insert:copular_flip",),
                        len(candidates) + 1,
                    )
                )
            # Subject questions take no preposition, so each extra When/Where
            # option repeats the rank-1 text.
            for prep in options[1:]:
                if len(candidates) >= config.emit_alternatives:
                    break
                tokens, extra = self._splice(answer_tokens, prep, source)
                candidates.append(_candidate(tokens, rules + extra, len(candidates) + 1))
        return candidates

    def _splice(
        self, answer_tokens: list[str], prep: str | None, source: str
    ) -> tuple[list[str], tuple[str, ...]]:
        """The body with the answer inserted, and the rules that placed it."""
        head, tail = self.body[: self.insert_index], self.body[self.insert_index :]
        if prep is None or not self.answer_prep:
            return [*head, *answer_tokens, *self.residual, *tail], self.insert_rules
        return (
            [*head, prep, *answer_tokens, *self.residual, *tail],
            (f"prep:{prep}({source})", *self.insert_rules),
        )


def plan_question(
    analysis: WhAnalysis,
    config: EngineConfig | None = None,
    *,
    lexicon: VerbLexicon | None = None,
) -> QuestionPlan:
    """Do the part of transform that does not depend on the answer.

    plan_question(analysis, config).realize(answer) equals
    transform(analysis, answer, config) for every answer.
    """
    config = config or EngineConfig()
    sent = analysis.question
    seq, forms, inv_rules = _deinverted(analysis, lexicon or VerbLexicon.bundled())
    start, end = analysis.wh_phrase
    rules = [f"qtype:{analysis.qtype}", *inv_rules]

    residual: tuple[str, ...] = ()
    if config.copy_wh_phrase and analysis.qtype in (QuestionType.WHICH, QuestionType.HOW):
        residual = tuple(
            sent.token(tid).form
            for tid in range(start, end + 1)
            if tid != analysis.wh_token and sent.token(tid).upos in ("NOUN", "PROPN")
        )
        if residual:
            rules.append("copy_wh_nouns:" + "_".join(residual))
    seq = [tid for tid in seq if not start <= tid <= end]
    rules.append(f"delete_wh_phrase:{start}-{end}")

    # The rightmost dangling preposition outside the wh phrase is stranded:
    # it stays in the sentence and the answer follows it.
    stranded = analysis.dangling_preps[-1] if analysis.dangling_preps else None
    if stranded is not None and start <= stranded <= end:
        stranded = None
    copular_identity = (
        analysis.copula is not None
        and not analysis.subject_wh
        and start <= analysis.root <= end
    )
    answer_prep = False
    if analysis.subject_wh:
        insert_index = sum(1 for tid in seq if tid < start)
        insert_rules: tuple[str, ...] = ("insert:subject_position",)
    elif stranded is not None:
        insert_index = seq.index(stranded) + 1
        insert_rules = (
            f"prep:{sent.token(stranded).form}(stranded)",
            "insert:after_stranded_prep",
        )
    else:
        answer_prep = True
        if copular_identity:
            insert_index, rule = len(seq), "insert:predicate_position"
        else:
            insert_index, rule = _insertion_site(analysis, seq)
        insert_rules = (rule,)

    body = tuple(forms.get(tid, sent.token(tid).form) for tid in seq)
    flip_body = None
    if copular_identity and seq and seq[-1] == analysis.copula:
        flip_body = (sent.token(analysis.copula).form, *body[:-1])
    return QuestionPlan(
        analysis=analysis,
        config=config,
        rules=tuple(rules),
        body=body,
        insert_index=insert_index,
        insert_rules=insert_rules,
        residual=residual,
        answer_prep=answer_prep,
        flip_body=flip_body,
    )


def transform(
    analysis: WhAnalysis,
    answer: str,
    config: EngineConfig | None = None,
    *,
    lexicon: VerbLexicon | None = None,
    table: PrepositionTable | None = None,
) -> list[DeclarativeCandidate]:
    """Rewrite an analyzed question plus answer into ranked declaratives.

    Deterministic: the same inputs always produce the same candidate list,
    at most config.emit_alternatives long and never empty. To rewrite one
    question with several answers, build its plan_question once and call
    realize per answer instead.

    Raises:
        TransformError: empty answer, or nothing realizable remained.
    """
    return plan_question(analysis, config, lexicon=lexicon).realize(answer, table=table)
