"""Rule-based rewriting of analyzed wh questions into declarative sentences.

The pipeline, in order: undo subject-auxiliary inversion (merging do-support
auxiliaries back into the verb), delete the wh phrase, substitute the answer
at the phrase's argument position with preposition and article adjustments,
and realize the token sequence as a sentence. Each candidate carries an
ordered audit trail of the rules that fired.

Only the answer substitution and realization depend on the answer.
plan_question does everything else once per question and returns a
QuestionPlan; its realize method then rewrites one answer at a time.
transform does both steps for a single answer. A plan holds what realize
reads, once: the config, the answer-independent rules, the copied nouns,
the preposition link and the frames realize fills. It keeps no analysis.

A plan pre-joins its sentence around the answer slot, with realize's
spacing: the words before the slot, and the words after it. That spacing
depends only on a token and the character before it, so the plan also
keeps the words before with their first letter uppercased, and the words
after with the sentence's period. A plain slot (no empty, '?' or closing
token, no apostrophe or bracket, and a letter before it or as its first
character) then costs one " ".join of its tokens and one concatenation.
Any other slot is joined a token at a time onto the words before, then
the first word after (the second seam), and the rest is appended as it
is; the sentence is capitalized and ended as realize does. Every
candidate fills a frame its plan built: the slot, or, for a copular flip,
the flipped sentence with its slot first, which plan_question joins only
when emit_alternatives > 1. So realize's Python-level steps follow the
answer's length, not the question's.

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

plan_question also decides, once, where a preposition before the answer
comes from: a pied-piped preposition deleted with the wh phrase is
re-emitted, else When and Where answers take one from the lookup table; a
dangling preposition always beats the table, and subject and
stranded-preposition questions take none. realize only asks the table
which words fit the answer, so extra candidates are distinct preposition
variants or a copular flip, never a repeat.

The two word lists, the VerbLexicon that re-inflects do-support verbs and
the PrepositionTable, come from EngineConfig alone: the bundled lists by
default, EngineConfig(lexicon=..., table=...) to override them. A plan
keeps its config, so it is realized with the table it was planned with.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .analysis import QuestionType, WhAnalysis, _base, _cut_subtree
from .conllu import _PUNCTUATION, _Checked, _Record
from .errors import DatasetError, TransformError
from .morphology import VerbLexicon, _key_value_lines, _load_bundled, reinflect

__all__ = [
    "DeclarativeCandidate",
    "EngineConfig",
    "PrepositionTable",
    "QuestionPlan",
    "insert_article",
    "plan_question",
    "realize",
    "transform",
    "undo_inversion",
]

_ARG_BASES = {"obj", "iobj", "ccomp", "attr", "acomp", "oprd", "dep"}
_CLAUSE_SKIP_BASES = {"advcl", "parataxis"}
# Questions asking who or what something is, whose copular sentence can flip
# ("Ann is the mayor."); a When or Where answer cannot be the subject.
_IDENTITY_QTYPES = {QuestionType.WHO, QuestionType.WHAT, QuestionType.WHICH, QuestionType.WHOSE}
# Each question type's qtype rule, formatted once rather than per plan.
_QTYPE_RULES = {qtype: f"qtype:{qtype}" for qtype in QuestionType}
# The preposition of motion toward a place ("went to Paris"). A place
# adverb already holds it ("went there"), so it is the one pied-piped
# preposition such an answer drops ("To where did he go?" + "there").
_TOWARD = "to"


class _CandidateFields(NamedTuple):
    text: str
    tokens: tuple[str, ...]
    applied_rules: tuple[str, ...]
    rank: int


class DeclarativeCandidate(_Checked, _CandidateFields):
    """One declarative rewrite, rank 1 being the engine's best guess."""

    __slots__ = ()

    def __new__(
        cls, text: str, tokens: tuple[str, ...], applied_rules: tuple[str, ...], rank: int
    ) -> DeclarativeCandidate:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if "?" in text:
            raise ValueError("candidate text may not contain '?'")
        if not text.endswith("."):
            raise ValueError("candidate text must end with '.'")
        return tuple.__new__(cls, (text, tokens, applied_rules, rank))


class _PrepositionTableFields(NamedTuple):
    prepositions: frozenset[str] = frozenset()
    temporal_adverbs: frozenset[str] = frozenset()
    place_adverbs: frozenset[str] = frozenset()
    months: frozenset[str] = frozenset()
    weekdays: frozenset[str] = frozenset()
    seasons: frozenset[str] = frozenset()
    time_words: frozenset[str] = frozenset()
    motion_verbs: frozenset[str] = frozenset()
    at_locations: frozenset[str] = frozenset()
    article_orgs: frozenset[str] = frozenset()


class PrepositionTable(_Checked, _PrepositionTableFields):
    """Word lists driving preposition selection, loaded from a TSV file.

    Rule application is first-match in the order coded in when_options /
    where_options; the file only supplies vocabulary. Matching is
    case-insensitive except article_orgs.

    A list's key in the file is its field name without the final "s":
    lines keyed "month" fill months, "article_org" fills article_orgs.
    Every list is a frozenset of str: a dict or a str, whose "in" would
    test keys or substrings, raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, *args: frozenset[str], **lists: frozenset[str]) -> PrepositionTable:
        table = super().__new__(cls, *args, **lists)
        for name, words in zip(cls._fields, table):
            if not (isinstance(words, frozenset) and all(isinstance(w, str) for w in words)):
                raise TypeError(f"{name} must be a frozenset of str, not {words!r}")
        return table

    @classmethod
    def from_file(cls, path: str) -> "PrepositionTable":
        lists: dict[str, set[str]] = {}
        for line_no, key, value in _key_value_lines(path):
            name = key + "s"
            if name not in cls._fields:
                raise DatasetError(f"unknown preposition-table key {key!r}", line_no, path)
            lists.setdefault(name, set()).add(value if name == "article_orgs" else value.lower())
        return cls(**{name: frozenset(words) for name, words in lists.items()})

    @classmethod
    def bundled(cls) -> "PrepositionTable":
        return _load_bundled(cls, "prepositions.tsv")

    # -- rule blocks ------------------------------------------------------

    def starts_suppressed(self, answer: str, qtype: QuestionType | None) -> bool:
        """True when the answer already opens with a preposition, or with a
        standalone time/place adverb matching the question type (None
        matches neither)."""
        return self._suppressed(_match_tokens(answer), qtype)

    def _suppressed(self, toks: list[str], qtype: QuestionType | None) -> bool:
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
        if not toks or self._suppressed(toks, QuestionType.WHEN):
            return []
        day_re, slash_date_re, clock_re, decade_re, year_re = _time_patterns()
        lower = answer.lower()
        options: list[str] = []
        has_month = not self.months.isdisjoint(toks)
        has_day = any(day_re.fullmatch(t) for t in toks)
        if (has_month and has_day) or any(slash_date_re.fullmatch(t) for t in toks):
            options.append("on")
        if not self.weekdays.isdisjoint(toks):
            options.append("on")
        if (
            clock_re.search(lower)
            or "o'clock" in lower
            or not self.time_words.isdisjoint(toks)
        ):
            options.append("at")
        if has_month or not self.seasons.isdisjoint(toks):
            options.append("in")
        if any(decade_re.fullmatch(t) or year_re.fullmatch(t) for t in toks):
            options.append("in")
        options.append("in")
        return list(dict.fromkeys(options))

    def where_options(self, answer: str, attachment_lemma: str | None) -> list[str]:
        """Ordered candidate prepositions for a place answer.

        Motion predicates take "to", institutions and point locations "at",
        everything else "in".
        """
        toks = _match_tokens(answer)
        if not toks or self._suppressed(toks, QuestionType.WHERE):
            return []
        options: list[str] = []
        if attachment_lemma and attachment_lemma.lower() in self.motion_verbs:
            options.append(_TOWARD)
        if not self.at_locations.isdisjoint(toks):
            options.append("at")
        options.append("in")
        return list(dict.fromkeys(options))


@cache
def _time_patterns() -> tuple[re.Pattern[str], ...]:
    """when_options' day, slash date, clock, decade and year patterns,
    compiled on the first time answer rather than at every import."""
    return (
        re.compile(r"\d{1,2}(st|nd|rd|th)?"),
        re.compile(r"\d{1,2}[/.-]\d{1,2}[/.-]\d{2,4}"),
        re.compile(r"\b\d{1,2}(:\d{2})?\s*([ap]\.?m\.?)(\W|$)"),
        re.compile(r"(\d{4}|\d{2})s"),
        re.compile(r"[12]\d{3}"),
    )


def _match_tokens(text: str) -> list[str]:
    return [t for tok in text.split() if (t := tok.strip(_PUNCTUATION).lower())]


class EngineConfig(_Record):
    """Knobs and word lists for the rewrite.

    copy_wh_phrase keeps residual nouns of Which/How phrases after the
    answer ("How many people attended?" + "50" -> "50 People attended.").
    emit_alternatives caps how many ranked candidates transform may return;
    extra candidates vary the preposition in table order, or flip a copular
    Who/What/Which/Whose sentence when the answer starts with a capitalized
    phrase.

    lexicon re-inflects do-support verbs and table decides prepositions
    and articles; None, the default, stands for the bundled lists, and
    passing others here is the one way to override them. They take part
    in == but not in hash or repr.
    """

    __slots__ = _fields = _compared = ("copy_wh_phrase", "emit_alternatives", "lexicon", "table")
    _shown = _hashed = ("copy_wh_phrase", "emit_alternatives")
    copy_wh_phrase: bool
    emit_alternatives: int
    lexicon: VerbLexicon
    table: PrepositionTable

    def __init__(
        self,
        copy_wh_phrase: bool = False,
        emit_alternatives: int = 1,
        lexicon: VerbLexicon | None = None,
        table: PrepositionTable | None = None,
    ) -> None:
        if not isinstance(emit_alternatives, int) or emit_alternatives < 1:
            raise ValueError("emit_alternatives must be an int >= 1")
        lexicon = VerbLexicon.bundled() if lexicon is None else lexicon
        table = PrepositionTable.bundled() if table is None else table
        for name, value in zip(self.__slots__, (copy_wh_phrase, emit_alternatives, lexicon, table)):
            object.__setattr__(self, name, value)


def insert_article(answer: str, exceptions: Iterable[str] | None = None) -> str:
    """Prepend "the" to bare single-token organization answers.

    "UN" -> "the UN"; "WHO" (not listed) and "the UN" (already articled,
    multi-token) pass through, so the operation is idempotent.

    Raises:
        TypeError: exceptions is a str, which would read as a set of its
            characters.
    """
    if isinstance(exceptions, str):
        raise TypeError(f"exceptions must be an iterable of names, not the str {exceptions!r}")
    orgs = frozenset(exceptions) if exceptions is not None else PrepositionTable.bundled().article_orgs
    bare = answer.strip()
    if bare and " " not in bare and bare in orgs:
        return "the " + bare
    return answer


# -- sequencing --------------------------------------------------------------


def _deinverted(
    analysis: WhAnalysis, lexicon: VerbLexicon
) -> tuple[list[int], dict[int, str], list[str]]:
    """Token ids in declarative order, surface-form overrides, rule trail.

    Raises:
        TransformError: a do-support auxiliary other than do/does/did
            ("What'd you buy?"), whose tense cannot be told, or a blank verb
            to inflect under do-support.
    """
    sent = analysis.question
    form, lemma = sent.form, sent.lemma
    seq = [i for i, f in enumerate(form, 1) if f != "?"]
    forms: dict[int, str] = {}
    rules: list[str] = []
    if analysis.subject_wh or not analysis.verbs:
        return seq, forms, rules  # subject and in-situ questions are not inverted
    target = analysis.verbs[0]

    if analysis.aux is not None and (lemma[target - 1] or form[target - 1].lower()) == "do":
        aux = form[target - 1].lower()
        if aux.strip() not in ("do", "does", "did"):
            raise TransformError(f"unsupported do-support form {form[target - 1]!r}")
        root = analysis.root
        seq.remove(target)
        verb = lemma[root - 1] or form[root - 1]
        if not verb.strip():
            raise TransformError(f"blank verb {verb!r} under do-support")
        inflected = reinflect(verb, aux, lexicon)
        forms[root] = inflected
        rules.append(f"do_support:{aux}->{inflected}")
        return seq, forms, rules

    if analysis.subject is None:
        # Inverted aux with no subject to tuck it behind: keep the original
        # order rather than guessing.
        rules.append("inversion_fallback:no_subject")
        return seq, forms, rules

    # Auxiliary and copula words before the subject move, in order, behind
    # its last word; a '?' is not a word and is already out of seq.
    subj_span = sent.subtree_ids(analysis.subject)
    fronted = [tid for tid in analysis.verbs if tid < min(subj_span) and tid in seq]
    if fronted:
        seq = [tid for tid in seq if tid not in fronted]
        words = [i for i, tid in enumerate(seq) if tid in subj_span]
        if not words:
            raise TransformError("the subject has no words")
        seq[words[-1] + 1 : words[-1] + 1] = fronted
        rules.extend(f"deinvert:{form[tid - 1].lower()}_after_subject" for tid in fronted)
    return seq, forms, rules


def undo_inversion(analysis: WhAnalysis, config: EngineConfig | None = None) -> list[str]:
    """Surface forms of the question in declarative order.

    Do-support auxiliaries disappear into the verb, re-inflected with
    config.lexicon; other auxiliaries and copulas move behind the full
    subject phrase. The wh phrase is still present; deleting it is the next
    pipeline step.

    Raises:
        TransformError: an unsupported do-support form.
    """
    seq, forms, _ = _deinverted(analysis, (config or EngineConfig()).lexicon)
    form = analysis.question.form
    return [forms.get(tid, form[tid - 1]) for tid in seq]


def _clean_answer(answer: str) -> str:
    a = answer.strip()
    while a and a[-1] in ",;:!?":
        a = a[:-1].rstrip()
    if a.endswith("."):
        last = a.split()[-1]
        if "." not in last[:-1]:  # not an abbreviation like "a.m."
            a = a[:-1].rstrip()
    return a


_CLOSING = frozenset({",", ".", ";", ":", "!", "%", ")", "]", "}", "n't"})


def _spoken(tokens: Iterable[str]) -> tuple[str, ...]:
    """The tokens a sentence keeps: empty tokens and '?' go."""
    return tuple([t for t in tokens if t and t != "?"])


def _join(tokens: Sequence[str], text: str = "") -> str:
    """text with tokens appended, each after one space, except none at the
    start, before closing punctuation or a clitic, or after an opening bracket."""
    joined = " ".join(tokens)
    # With no empty or closing token, no apostrophe and no opening bracket,
    # each token after the first takes one space, so one join spaces them all.
    if (
        "'" not in joined
        and "(" not in joined
        and "[" not in joined
        and "{" not in joined
        and "" not in tokens
        and _CLOSING.isdisjoint(tokens)
    ):
        if text and joined and text[-1] not in "([{":
            return text + " " + joined
        return text + joined
    for tok in tokens:
        if text and not (tok in _CLOSING or tok.startswith("'") or text[-1] in "([{"):
            text += " "
        text += tok
    return text


def _capitalized(text: str) -> str:
    """text with its first letter uppercased."""
    for i, ch in enumerate(text):
        if ch.isalpha():
            return text[:i] + ch.upper() + text[i + 1 :]
    return text


def _sentence(text: str) -> str:
    """text with its first letter uppercased, ending with "."."""
    if not text:
        raise ValueError("nothing to realize")
    text = _capitalized(text)
    return text if text.endswith(".") else text + "."


def realize(tokens: Sequence[str]) -> str:
    """Join tokens into a sentence.

    Single spaces, except none before closing punctuation / clitics
    (, . ; : ! % ) 's n't ...) and none after an opening bracket. The first
    alphabetic character is uppercased and a terminal period appended if
    missing. '?' tokens are dropped, and a '?' inside a token is an error,
    so question marks never survive into the output.

    Raises:
        ValueError: no tokens left to realize, or a token holds a '?'.
    """
    text = _sentence(_join(_spoken(tokens)))
    if "?" in text:
        raise ValueError("realized text may not contain '?'")
    return text


class _Frame(NamedTuple):
    """The words around an answer slot, joined once as realize joins them.

    A token's space depends only on the token and the character before it,
    so fill joins the slot's tokens and the tail's first token onto head,
    then appends the rest of the tail as it is. A plain slot (see fill)
    needs no join at the seams: lead and end are already spaced, and they
    hold the sentence's capital (when head has a letter) and its period.
    """

    head: str
    head_tokens: tuple[str, ...]
    tail_tokens: tuple[str, ...]
    rest: str  # the joined tail after its first token
    lead: str  # head, its first letter uppercased, and the space a plain slot takes after it
    capped: bool  # head has a letter, so lead holds the sentence's capital
    end: str  # the joined tail after a plain slot, ending with ".", or "" when there is none

    def fill(self, middle: tuple[str, ...], rules: tuple[str, ...], rank: int) -> DeclarativeCandidate:
        """The candidate with middle's tokens in the slot."""
        joined = " ".join(middle)
        try:
            # A plain slot holds no empty, '?' or closing token and no
            # apostrophe or bracket, so each of its tokens but the first
            # takes one space, and lead and end fit both seams; its first
            # letter is the sentence's capital when head has none.
            if (
                joined
                and (self.capped or joined[0].isalpha())
                and "'" not in joined
                and "?" not in joined
                and "(" not in joined
                and "[" not in joined
                and "{" not in joined
                and "" not in middle
                and _CLOSING.isdisjoint(middle)
            ):
                if not self.capped:
                    joined = joined[0].upper() + joined[1:]
                text = self.lead + joined + self.end
                if not text.endswith("."):  # no tail, and no period on the slot
                    text += "."
            else:
                middle = _spoken(middle)
                text = _sentence(_join((*middle, *self.tail_tokens[:1]), self.head) + self.rest)
            tokens = self.head_tokens + middle + self.tail_tokens
            return DeclarativeCandidate(text, tokens, (*rules, "realize"), rank)
        except ValueError as exc:  # nothing left, or a '?' inside an answer token
            raise TransformError(str(exc)) from exc


def _frame(words: Sequence[str], cut: int) -> _Frame:
    """The frame of an answer slot before words[cut]; words are a plan's,
    with no empty token and no '?' but a do-support verb's."""
    head_tokens, tail_tokens = tuple(words[:cut]), tuple(words[cut:])
    if "?" in words:  # a verb re-inflected to '?', which is no word
        head_tokens, tail_tokens = _spoken(head_tokens), _spoken(tail_tokens)
    head, tail = _join(head_tokens), _join(tail_tokens)
    if tail_tokens:
        first = tail_tokens[0]
        rest = tail[len(first) :]
        # A plain slot ends in no opening bracket, so the tail's first token
        # takes a space unless it is a closing token or a clitic.
        end = tail if first in _CLOSING or first.startswith("'") else " " + tail
        if not end.endswith("."):
            end += "."
    else:
        rest = end = ""
    lead = _capitalized(head) + (" " if head and head[-1] not in "([{" else "")
    return _Frame(head, head_tokens, tail_tokens, rest, lead, any(map(str.isalpha, head)), end)


def _insertion_site(analysis: WhAnalysis, seq: list[int]) -> tuple[int, str]:
    """Index in seq where an argument or adjunct answer goes, and its rule."""
    sent = analysis.question
    heads, deprels = sent.head, sent.deprel
    attach_id = analysis.wh_attachment
    if _base(deprels[analysis.wh_head - 1]) in _ARG_BASES and attach_id in seq:
        index = seq.index(attach_id) + 1
        while (
            index < len(seq)
            and heads[seq[index] - 1] == attach_id
            and deprels[seq[index] - 1] == "compound:prt"
        ):
            index += 1
        return index, "insert:after_predicate"
    members = _cut_subtree(sent, attach_id, _CLAUSE_SKIP_BASES)
    for index in range(len(seq) - 1, -1, -1):
        if seq[index] in members:
            return index + 1, "insert:attachment_end"
    return len(seq), "insert:attachment_end"


class QuestionPlan(NamedTuple):
    """The answer-independent half of a rewrite, built by plan_question.

    A plan is built once per question and realized once per answer, so a
    multichoice item pays for de-inversion, wh-phrase deletion, the
    insertion-site search and joining the sentence around the answer slot
    once rather than once per option.
    """

    config: EngineConfig
    rules: tuple[str, ...]  # qtype, inversion, copy_wh_nouns, delete_wh_phrase
    insert_rules: tuple[str, ...]  # the insert:* rule, after prep:*(stranded)
    residual: tuple[str, ...]  # copied Which/How nouns, placed after the answer
    # Where a preposition before the answer comes from: None (subject and
    # stranded-preposition questions; the answer goes in bare), ("pied",
    # prep), ("pied_to_where", "to"), whose "to" a place adverb drops,
    # ("when", ""), ("where", attachment lemma) or ("none", "").
    link: tuple[str, str] | None
    # The copula and the subject, joined with the slot first, for "Answer is
    # X's Y."; None unless the question flips and config.emit_alternatives > 1.
    flip: _Frame | None
    slot: _Frame  # declarative-order forms, wh phrase deleted, joined around the answer slot

    def realize(self, answer: str) -> list[DeclarativeCandidate]:
        """Ranked declaratives for one answer, exactly as transform gives them.

        Prepositions and articles come from the plan's config.table.

        Raises:
            TransformError: empty answer, an answer with a '?' inside it, or
                nothing realizable remained.
        """
        table = self.config.table
        answer_clean = _clean_answer(answer)
        if not answer_clean:
            raise TransformError("answer is empty after trimming")
        articled = insert_article(answer_clean, table.article_orgs)
        rules = self.rules + ("article:the",) if articled != answer_clean else self.rules
        answer_tokens = articled.split()
        options = self._prepositions(answer_clean, table)

        candidates = [self._placed(answer_tokens, options[0] if options else None, rules, 1)]
        cap = self.config.emit_alternatives
        if cap > 1 and self.flip is not None and answer_tokens[0][:1].isupper():
            candidates.append(
                self.flip.fill(tuple(answer_tokens), (*rules, "insert:copular_flip"), 2)
            )
        for prep in options[1 : cap - len(candidates) + 1]:  # up to cap candidates
            candidates.append(self._placed(answer_tokens, prep, rules, len(candidates) + 1))
        return candidates

    def _prepositions(self, answer: str, table: PrepositionTable) -> list[str]:
        """This answer's preposition options, in rank order."""
        kind, word = self.link or ("none", "")
        if kind in ("pied", "pied_to_where"):
            # A place adverb drops only the "to" of "to where" ("there");
            # "from abroad", "until next week" and "to which country" +
            # "South Korea" keep theirs. The answer's own preposition
            # replaces any.
            place = QuestionType.WHERE if kind == "pied_to_where" else None
            return [] if table.starts_suppressed(answer, place) else [word]
        if kind == "when":
            return table.when_options(answer)
        if kind == "where":
            return table.where_options(answer, word)
        return []

    def _placed(self, answer_tokens: list[str], prep: str | None, rules: tuple, rank: int):
        """The candidate with the answer in the slot, after prep if there is one."""
        if prep is None:
            none = ("prep:none",) if self.link is not None else ()
            return self.slot.fill((*answer_tokens, *self.residual), rules + self.insert_rules + none, rank)
        source = "pied" if self.link[0].startswith("pied") else "table"
        rules += (f"prep:{prep}({source})", *self.insert_rules)
        return self.slot.fill((prep, *answer_tokens, *self.residual), rules, rank)


def plan_question(analysis: WhAnalysis, config: EngineConfig | None = None) -> QuestionPlan:
    """Do the part of transform that does not depend on the answer.

    plan_question(analysis, config).realize(answer) equals
    transform(analysis, answer, config) for every answer.

    Raises:
        TransformError: an unsupported do-support form.
    """
    config = config or EngineConfig()
    sent = analysis.question
    form = sent.form
    seq, forms, inv_rules = _deinverted(analysis, config.lexicon)
    start, end = analysis.wh_phrase
    rules = [_QTYPE_RULES[analysis.qtype], *inv_rules]

    residual: tuple[str, ...] = ()
    if config.copy_wh_phrase and analysis.qtype in (QuestionType.WHICH, QuestionType.HOW):
        residual = tuple(
            form[tid - 1]
            for tid in range(start, end + 1)
            if tid != analysis.wh_token and sent.upos[tid - 1] in ("NOUN", "PROPN")
        )
        if residual:
            rules.append("copy_wh_nouns:" + "_".join(residual))
    seq = [tid for tid in seq if not start <= tid <= end]
    rules.append(f"delete_wh_phrase:{start}-{end}")

    # The rightmost dangling preposition decides how the answer attaches:
    # outside the wh phrase it is stranded (it stays in the sentence and the
    # answer follows it); inside it was pied-piped, deleted with the phrase
    # and re-emitted before the answer. Without one, When and Where answers
    # take a preposition from the table.
    prep_id = analysis.dangling_preps[-1] if analysis.dangling_preps else None
    copular_identity = (
        analysis.copula is not None
        and not analysis.subject_wh
        and analysis.wh_head == analysis.root
    )
    link: tuple[str, str] | None = None
    if analysis.subject_wh:
        insert_index = sum(1 for tid in seq if tid < start)
        insert_rules: tuple[str, ...] = ("insert:subject_position",)
    elif prep_id in seq:  # stranded: a pied-piped one left with the wh phrase
        insert_index = seq.index(prep_id) + 1
        insert_rules = (
            f"prep:{form[prep_id - 1]}(stranded)",
            "insert:after_stranded_prep",
        )
    else:
        if copular_identity:
            insert_index, rule = len(seq), "insert:predicate_position"
        else:
            insert_index, rule = _insertion_site(analysis, seq)
        insert_rules = (rule,)
        if prep_id is not None and start <= prep_id <= end:
            word = form[prep_id - 1].lower()
            to_where = analysis.qtype is QuestionType.WHERE and word == _TOWARD
            link = ("pied_to_where" if to_where else "pied", word)
        elif analysis.qtype is QuestionType.WHEN:
            link = ("when", "")
        elif analysis.qtype is QuestionType.WHERE:
            attachment = analysis.wh_attachment
            link = ("where", sent.lemma[attachment - 1] or form[attachment - 1].lower())
        else:
            link = ("none", "")

    body = [form[tid - 1] for tid in seq]
    for tid, word in forms.items():  # the do-support verb, unless deleted with the wh phrase
        if tid in seq:
            body[seq.index(tid)] = word
    flip = None
    identity = copular_identity and analysis.qtype in _IDENTITY_QTYPES
    if identity and config.emit_alternatives > 1 and seq and seq[-1] == analysis.copula:
        # the flip fronts the copula with the auxiliaries right before it
        cut = len(seq) - 1
        while cut and seq[cut - 1] in analysis.verbs:
            cut -= 1
        flip = _frame((*body[cut:], *body[:cut]), 0)
    return QuestionPlan(
        config=config,
        rules=tuple(rules),
        insert_rules=insert_rules,
        residual=residual,
        link=link,
        flip=flip,
        slot=_frame(body, insert_index),
    )


def transform(
    analysis: WhAnalysis,
    answer: str,
    config: EngineConfig | None = None,
) -> list[DeclarativeCandidate]:
    """Rewrite an analyzed question plus answer into ranked declaratives.

    Deterministic: the same inputs always produce the same candidate list,
    at most config.emit_alternatives long and never empty. To rewrite one
    question with several answers, build its plan_question once and call
    realize per answer instead.

    Raises:
        TransformError: empty answer, an answer with a '?' inside it, an
            unsupported do-support form, or nothing realizable remained.
    """
    return plan_question(analysis, config).realize(answer)
