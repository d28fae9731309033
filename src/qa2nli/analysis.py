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
stay dependents of the extracted word. Stanford-basic-style labels
(nsubjpass, auxpass, prep) are accepted where they differ only in spelling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .conllu import DepSentence, DepToken
from .errors import AnalysisError, NotWhQuestionError


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
    existentials like "What is in the box?"). aux and copula are recorded
    independently; a question may have both ("What will be the result?"),
    and the rewrite moves each one that precedes the subject.
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
    return _WH_FORMS[_wh_token(sentence).form.lower()]


def _wh_token(sentence: DepSentence) -> DepToken:
    for tok in sentence.tokens:
        if tok.form.lower() in _WH_FORMS:
            return tok
    raise NotWhQuestionError("no wh word")


def _phrase_head(sentence: DepSentence, wh: DepToken) -> DepToken:
    cur = wh
    while cur.head != 0:
        if cur.deprel not in _CLIMB_RELS:
            break
        parent = sentence.token(cur.head)
        if parent.upos in ("VERB", "AUX"):
            break
        cur = parent
    return cur


def _cut_subtree(sentence: DepSentence, token_id: int, bases: set[str]) -> set[int]:
    """Ids of a token's subtree minus the subtrees of its children whose base
    relation is in bases."""
    members = set(sentence.subtree_ids(token_id))
    for child in sentence.children(token_id):
        if _base(child.deprel) in bases:
            members -= sentence.subtree_ids(child.id)
    return members


def _phrase_span(sentence: DepSentence, head: DepToken, wh: DepToken) -> tuple[int, int]:
    members = _cut_subtree(sentence, head.id, _PHRASE_CUT_BASES)
    members.add(wh.id)
    start = end = wh.id
    while start - 1 in members:
        start -= 1
    while end + 1 in members:
        end += 1
    return (start, end)


def _find_subject(sentence: DepSentence, root: DepToken) -> DepToken | None:
    for child in sentence.children(root.id):
        if _base(child.deprel) in _SUBJECT_BASES:
            return child
    return None


def _find_aux(
    sentence: DepSentence, root: DepToken, subject: DepToken | None
) -> DepToken | None:
    auxes = [
        c
        for c in sentence.children(root.id)
        if _base(c.deprel) in _AUX_BASES
    ]
    if not auxes:
        return None
    if subject is not None:
        subj_start = min(sentence.subtree_ids(subject.id))
        fronted = [a for a in auxes if a.id < subj_start]
        if fronted:
            return fronted[0]
    return auxes[0]


def _find_copula(
    sentence: DepSentence, root: DepToken, subject: DepToken | None
) -> DepToken | None:
    for child in sentence.children(root.id):
        if _base(child.deprel) == "cop":
            return child
    # Parses that keep "be" as the clause head: the root doubles as copula.
    if root.lemma == "be" and root.upos in ("AUX", "VERB") and subject is not None:
        return root
    return None


def _attachment(sentence: DepSentence, head: DepToken) -> DepToken:
    if head.head == 0:
        return head
    gov = sentence.token(head.head)
    # Step over adposition nodes so prep-chain parses land on the predicate.
    while gov.upos == "ADP" and gov.head != 0:
        gov = sentence.token(gov.head)
    return gov


def _dangling_preps(
    sentence: DepSentence, wh: DepToken, head: DepToken, root: DepToken
) -> tuple[int, ...]:
    holders = {wh.id, head.id, root.id}
    found: set[int] = set()
    for holder in holders:
        for child in sentence.children(holder):
            if child.deprel in _PREP_DEPRELS and child.upos in _PREP_UPOS:
                found.add(child.id)
    return tuple(sorted(found))


def analyze(sentence: DepSentence) -> WhAnalysis:
    """Analyze a wh question for declarative rewriting.

    Raises:
        NotWhQuestionError: the sentence has no wh word.
        AnalysisError: a wh word exists but the parse is degenerate.
    """
    wh = _wh_token(sentence)
    qtype = _WH_FORMS[wh.form.lower()]
    root = sentence.root
    if root.upos == "PUNCT":
        raise AnalysisError(
            f"degenerate parse: root of {sentence.sent_id or 'sentence'} is punctuation"
        )

    head = _phrase_head(sentence, wh)
    span = _phrase_span(sentence, head, wh)
    subject = _find_subject(sentence, root)
    aux = _find_aux(sentence, root, subject)
    copula = _find_copula(sentence, root, subject)

    subject_wh = bool(subject is not None and subject.id == head.id)
    if (
        not subject_wh
        and subject is None
        and copula is not None
        and head.id == root.id
    ):
        # Copular clause with no other subject: the wh phrase is it.
        subject_wh = True

    return WhAnalysis(
        question=sentence,
        wh_token=wh.id,
        wh_phrase=span,
        qtype=qtype,
        root=root.id,
        aux=aux.id if aux is not None else None,
        copula=copula.id if copula is not None else None,
        subject=subject.id if subject is not None else None,
        wh_attachment=_attachment(sentence, head).id,
        dangling_preps=_dangling_preps(sentence, wh, head, root),
        subject_wh=subject_wh,
    )
