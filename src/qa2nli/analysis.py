"""Wh-question analysis over dependency parses.

Finds the wh word, works out the extent of the fronted wh phrase, and pulls
out the pieces the declarative rewrite needs: main predicate, auxiliary and
copula (a question may have both, as in "Who has been the mayor?"), the
verb group (all of the predicate's auxiliaries and its copula, the words
de-inversion moves), subject, the predicate the wh phrase attaches to, and
any dangling (stranded or pied-piped) prepositions.

The rules read one dependency scheme, UD: auxiliaries hang off the main
predicate with deprel aux/aux:pass, copulas with cop (predicate nominals
head copular clauses, so "What is X?" has the wh word as root),
adpositions attach to their complement with case, and stranded prepositions
stay dependents of the extracted word. A clause headed by "be" with a
subject is also read as copular, with "be" as its copula.

analyze first reads a parse in UD (_as_ud), so that Stanford-basic and
ClearNLP parses, such as spaCy's English models give, are rewritten as
their UD counterparts are. The labels it converts are those of _UD_LABELS:
nsubjpass, csubjpass, auxpass, dobj, poss, prt and neg are renamed
(nsubj:pass, csubj:pass, aux:pass, obj, nmod:poss, compound:prt, advmod).
A preposition that heads its object (pobj or pcomp), whether labelled
prep, agent, dative or root, hands the object its own head and becomes the
object's case; the object is nmod under a nominal, obl under anything else,
and root if the preposition was. A prep with no object is stranded, and
becomes case where it stands. Token ids and forms never change, and a
parse with none of these labels is read as it is.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

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
    "attr",
}

_SUBJECT_BASES = {"nsubj", "csubj"}
_PREP_DEPRELS = {"case", "compound:prt"}
_PREP_UPOS = {"ADP", "PART", "ADV"}

# The Stanford-basic/ClearNLP labels _as_ud converts, with their UD names.
# A preposition _as_ud re-heads, and its object, are named by where the
# object lands; the pobj/pcomp and prep names here are for the rest, such as
# a second object and a stranded prep.
_UD_LABELS = {
    "nsubjpass": "nsubj:pass",
    "csubjpass": "csubj:pass",
    "auxpass": "aux:pass",
    "dobj": "obj",
    "poss": "nmod:poss",
    "prt": "compound:prt",
    "neg": "advmod",
    "pobj": "obl",
    "pcomp": "obl",
    "prep": "case",
}
_NOMINAL_UPOS = {"NOUN", "PROPN", "PRON", "NUM"}


class WhAnalysis(NamedTuple):
    """Everything the rewrite engine needs to know about one question.

    wh_phrase is an inclusive (start, end) token-id span: the maximal
    contiguous run of the fronted phrase around the wh token. Stranded
    prepositions fall outside it by construction and surface in
    dangling_preps instead. subject_wh means the wh phrase itself is the
    subject, in which case subject is its head (or absent for copular
    existentials like "What is in the box?"). aux is the main predicate's
    first auxiliary and copula its copula; a question may have both ("What
    will be the result?") and further auxiliaries ("What will have been the
    result?"). verbs is the verb group: the ids of all the main predicate's
    auxiliaries and its copula, in surface order. The rewrite moves every
    one of them that precedes the subject, keeping their order. wh_head is
    the head of the wh phrase: the token the wh word climbs to through its
    determiner, modifier and possessor relations ("city" in "In which
    city", "books" in "How many books", the wh word itself in "What did
    Liz buy?"). Its relation says what the phrase does in the clause, and
    wh_attachment is its head (itself when it is the root).
    """

    question: DepSentence
    wh_token: int
    wh_phrase: tuple[int, int]
    qtype: QuestionType
    root: int
    aux: int | None
    copula: int | None
    verbs: tuple[int, ...]
    subject: int | None
    wh_attachment: int
    dangling_preps: tuple[int, ...]
    subject_wh: bool
    wh_head: int


def _base(deprel: str) -> str:
    return deprel.partition(":")[0]


def classify_question(sentence: DepSentence) -> QuestionType:
    """Type a question by its leftmost wh word.

    Raises:
        NotWhQuestionError: no wh word anywhere in the sentence.
    """
    return _wh(sentence)[1]


# Helpers below take and return token ids and read the sentence's columns:
# sentence.form[i - 1] is the form of token i.


def _wh(sentence: DepSentence) -> tuple[int, QuestionType]:
    """The leftmost wh word and its question type."""
    for i, form in enumerate(sentence.form, 1):
        qtype = _WH_FORMS.get(form.lower())
        if qtype is not None:
            return i, qtype
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


def _as_ud(sentence: DepSentence) -> DepSentence:
    """The sentence in UD labels (see the module docstring); the sentence
    itself when it holds none of _UD_LABELS."""
    deprels = sentence.deprel
    if _UD_LABELS.keys().isdisjoint(deprels):
        return sentence
    heads, upos = list(sentence.head), sentence.upos
    labels = [_UD_LABELS.get(rel, rel) for rel in deprels]
    # A token with an object is a preposition: its first object takes its
    # place in the tree, and it becomes the object's case.
    for prep in range(1, len(heads) + 1):
        kids = sentence.child_ids(prep)
        obj = next((c for c in kids if deprels[c - 1] in ("pobj", "pcomp")), None)
        if obj is not None:
            gov = heads[prep - 1]
            heads[obj - 1], heads[prep - 1] = gov, obj
            labels[prep - 1] = "case"
            labels[obj - 1] = (
                "root" if gov == 0 else "nmod" if upos[gov - 1] in _NOMINAL_UPOS else "obl"
            )
    columns = (
        tuple(range(1, len(heads) + 1)), sentence.form, sentence.lemma, upos, sentence.xpos,
        tuple(heads), tuple(labels),
    )
    return DepSentence._columnar(columns, sentence.text, sentence.sent_id)


def analyze(sentence: DepSentence) -> WhAnalysis:
    """Analyze a wh question for declarative rewriting.

    The analysis reads, and its question holds, the sentence's UD reading.

    Raises:
        NotWhQuestionError: the sentence has no wh word.
        AnalysisError: a wh word exists but the parse is degenerate.
    """
    sentence = _as_ud(sentence)
    wh, qtype = _wh(sentence)
    root = sentence.root_id
    deprels, upos = sentence.deprel, sentence.upos
    if upos[root - 1] == "PUNCT":
        raise AnalysisError(
            f"degenerate parse: root of {sentence.sent_id or 'sentence'} is punctuation"
        )

    head = _phrase_head(sentence, wh)
    # One pass over the root's dependents: its first subject, every
    # auxiliary and its first copula, whose base relations are disjoint.
    subject = copula = None
    auxes = []
    for child in sentence.child_ids(root):
        base = deprels[child - 1].partition(":")[0]
        if base == "aux":
            auxes.append(child)
        elif base in _SUBJECT_BASES and subject is None:
            subject = child
        elif base == "cop" and copula is None:
            copula = child
    # Parses that keep "be" as the clause head: the root doubles as copula.
    if (
        copula is None
        and subject is not None
        and sentence.lemma[root - 1] == "be"
        and upos[root - 1] in ("AUX", "VERB")
    ):
        copula = root
    verbs = auxes if copula is None else sorted([*auxes, copula])
    # A token has one head, so the dependents of distinct holders are distinct.
    dangling = sorted([
        child
        for holder in {wh, head, root}
        for child in sentence.child_ids(holder)
        if deprels[child - 1] in _PREP_DEPRELS and upos[child - 1] in _PREP_UPOS
    ])

    # A copular clause with no other subject has the wh phrase as subject.
    subject_wh = subject == head or (subject is None and copula is not None and head == root)

    return WhAnalysis(
        sentence,
        wh,
        _phrase_span(sentence, head, wh),
        qtype,
        root,
        auxes[0] if auxes else None,  # an inverted one when there is one
        copula,
        tuple(verbs),
        subject,
        sentence.head[head - 1] or head,  # the root attaches to itself
        tuple(dangling),
        subject_wh,
        head,
    )
