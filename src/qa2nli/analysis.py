"""Wh-question analysis over dependency parses.

Finds the wh word, works out the extent of the fronted wh phrase, and pulls
out the pieces the declarative rewrite needs: main predicate, auxiliary and
copula (a question may have both, as in "Who has been the mayor?"),
subject, the predicate the wh phrase attaches to, and any dangling
(stranded or pied-piped) prepositions.

Conventions assumed of the parses are UD-flavored: auxiliaries hang off the
main predicate with deprel aux/aux:pass, copulas with cop (predicate
nominals head copular clauses, so "What is X?" has the wh word as root),
adpositions attach to their complement with case, and stranded prepositions
stay dependents of the extracted word. Stanford-basic labels that only
rename a UD relation (nsubjpass, auxpass, dobj, poss, ...) are read as
their UD labels. A prep -> pobj phrase is not converted, because there the
preposition heads its object: the preposition is taken for a stranded one,
so such a question can be rewritten wrongly ("In which city did Liz
live?" + "Paris" gives "In Paris Liz lived.").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .conllu import DepSentence
from .errors import AnalysisError, NotWhQuestionError

__all__ = ["QuestionType", "WhAnalysis", "analyze", "classify_question"]


class QuestionType(enum.Enum):
    WHO = "Who"
    WHAT = "What"
    WHEN = "When"
    WHERE = "Where"
    WHICH = "Which"
    WHOSE = "Whose"
    WHY = "Why"
    HOW = "How"

    def __str__(self) -> str:  # report-friendly
        return self.value


# Classification is lexical on the wh word alone: "how many" / "how much"
# are HOW, "whom" folds into WHO.
_WH_FORMS: dict[str, QuestionType] = {
    "who": QuestionType.WHO,
    "whom": QuestionType.WHO,
    "whose": QuestionType.WHOSE,
    "what": QuestionType.WHAT,
    "which": QuestionType.WHICH,
    "when": QuestionType.WHEN,
    "where": QuestionType.WHERE,
    "why": QuestionType.WHY,
    "how": QuestionType.HOW,
}

# Relations a wh token climbs through to reach the head of its fronted
# phrase ("which friend", "how many people", "whose car").
_CLIMB_RELS = {
    "det",
    "amod",
    "advmod",
    "nummod",
    "compound",
    "fixed",
    "goeswith",
    "nmod:poss",
    "poss",
}

# Child subtrees cut away when measuring the wh phrase. Matters mainly when
# the wh word roots a copular clause and everything else hangs off it.
_PHRASE_CUT_BASES = {
    "nsubj",
    "csubj",
    "cop",
    "aux",
    "punct",
    "advcl",
    "ccomp",
    "xcomp",
    "parataxis",
    "discourse",
    "expl",
    "obj",
    "iobj",
    "obl",
    "vocative",
    "dislocated",
    "mark",
    "dep",
    "nsubjpass",
    "auxpass",
    "attr",
}

_SUBJECT_BASES = {"nsubj", "csubj", "nsubjpass", "csubjpass"}
_AUX_BASES = {"aux", "auxpass"}
_PREP_DEPRELS = {"case", "prep", "prt", "compound:prt"}
_PREP_UPOS = {"ADP", "PART", "ADV"}


@dataclass(frozen=True)
class WhAnalysis:
    """Everything the rewrite engine needs to know about one question.

    wh_phrase is an inclusive (start, end) token-id span: the maximal
    contiguous run of the fronted phrase around the wh token. Stranded
    prepositions fall outside it by construction and surface in
    dangling_preps instead. subject_wh means the wh phrase itself is the
    subject, in which case subject is its head (or absent for copular
    existentials like "What is in the box?"). aux is the main predicate's
    first auxiliary and copula its copula; a question may have both ("What
    will be the result?") and further auxiliaries ("What will have been the
    result?"). The rewrite moves every auxiliary and copula that precedes
    the subject, keeping their order.
    """

    question: DepSentence
    wh_token: int
    wh_phrase: tuple[int, int]
    qtype: QuestionType
    root: int
    aux: int | None
    copula: int | None
    subject: int | None
    wh_attachment: int
    dangling_preps: tuple[int, ...]
    subject_wh: bool


def _base(deprel: str) -> str:
    return deprel.split(":", 1)[0]


def classify_question(sentence: DepSentence) -> QuestionType:
    """Type a question by its leftmost wh word.

    Raises:
        NotWhQuestionError: no wh word anywhere in the sentence.
    """
    return _WH_FORMS[sentence.form[_wh_token(sentence) - 1].lower()]


# Helpers below take and return token ids and read the sentence's columns:
# sentence.form[i - 1] is the form of token i.


def _wh_token(sentence: DepSentence) -> int:
    for i, form in enumerate(sentence.form, 1):
        if form.lower() in _WH_FORMS:
            return i
    raise NotWhQuestionError("no wh word")


def _phrase_head(sentence: DepSentence, wh: int) -> int:
    heads, deprels, upos = sentence.head, sentence.deprel, sentence.upos
    cur = wh
    while heads[cur - 1] != 0:
        if deprels[cur - 1] not in _CLIMB_RELS:
            break
        parent = heads[cur - 1]
        if upos[parent - 1] in ("VERB", "AUX"):
            break
        cur = parent
    return cur


def _cut_subtree(sentence: DepSentence, token_id: int, bases: set[str]) -> set[int]:
    """Ids of a token's subtree minus the subtrees of its children whose base
    relation is in bases."""
    members = set(sentence.subtree_ids(token_id))
    deprels = sentence.deprel
    for child in sentence.child_ids(token_id):
        if _base(deprels[child - 1]) in bases:
            members -= sentence.subtree_ids(child)
    return members


def _phrase_span(sentence: DepSentence, head: int, wh: int) -> tuple[int, int]:
    members = _cut_subtree(sentence, head, _PHRASE_CUT_BASES)
    members.add(wh)
    start = end = wh
    while start - 1 in members:
        start -= 1
    while end + 1 in members:
        end += 1
    return (start, end)


def _first_child(sentence: DepSentence, token_id: int, bases: set[str]) -> int | None:
    """The first dependent of a token whose base relation is in bases."""
    deprels = sentence.deprel
    return next(
        (c for c in sentence.child_ids(token_id) if _base(deprels[c - 1]) in bases), None
    )


def _find_copula(sentence: DepSentence, root: int, subject: int | None) -> int | None:
    copula = _first_child(sentence, root, {"cop"})
    if copula is not None:
        return copula
    # Parses that keep "be" as the clause head: the root doubles as copula.
    if (
        sentence.lemma[root - 1] == "be"
        and sentence.upos[root - 1] in ("AUX", "VERB")
        and subject is not None
    ):
        return root
    return None


def _attachment(sentence: DepSentence, head: int) -> int:
    heads, upos = sentence.head, sentence.upos
    if heads[head - 1] == 0:
        return head
    gov = heads[head - 1]
    # Step over adposition nodes so prep-chain parses land on the predicate.
    while upos[gov - 1] == "ADP" and heads[gov - 1] != 0:
        gov = heads[gov - 1]
    return gov


def _dangling_preps(sentence: DepSentence, wh: int, head: int, root: int) -> tuple[int, ...]:
    deprels, upos = sentence.deprel, sentence.upos
    found: set[int] = set()
    for holder in {wh, head, root}:
        for child in sentence.child_ids(holder):
            if deprels[child - 1] in _PREP_DEPRELS and upos[child - 1] in _PREP_UPOS:
                found.add(child)
    return tuple(sorted(found))


def analyze(sentence: DepSentence) -> WhAnalysis:
    """Analyze a wh question for declarative rewriting.

    Raises:
        NotWhQuestionError: the sentence has no wh word.
        AnalysisError: a wh word exists but the parse is degenerate.
    """
    wh = _wh_token(sentence)
    qtype = _WH_FORMS[sentence.form[wh - 1].lower()]
    root = sentence.root_id
    if sentence.upos[root - 1] == "PUNCT":
        raise AnalysisError(
            f"degenerate parse: root of {sentence.sent_id or 'sentence'} is punctuation"
        )

    head = _phrase_head(sentence, wh)
    span = _phrase_span(sentence, head, wh)
    subject = _first_child(sentence, root, _SUBJECT_BASES)
    # The main predicate's first auxiliary: an inverted one when there is one.
    aux = _first_child(sentence, root, _AUX_BASES)
    copula = _find_copula(sentence, root, subject)

    # A copular clause with no other subject has the wh phrase as subject.
    subject_wh = subject == head or (subject is None and copula is not None and head == root)

    return WhAnalysis(
        question=sentence,
        wh_token=wh,
        wh_phrase=span,
        qtype=qtype,
        root=root,
        aux=aux,
        copula=copula,
        subject=subject,
        wh_attachment=_attachment(sentence, head),
        dangling_preps=_dangling_preps(sentence, wh, head, root),
        subject_wh=subject_wh,
    )
