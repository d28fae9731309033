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
_AUX_BASES = {"aux"}
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

    The analysis reads, and its question holds, the sentence's UD reading.

    Raises:
        NotWhQuestionError: the sentence has no wh word.
        AnalysisError: a wh word exists but the parse is degenerate.
    """
    sentence = _as_ud(sentence)
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
    deprels = sentence.deprel
    auxes = [c for c in sentence.child_ids(root) if _base(deprels[c - 1]) in _AUX_BASES]
    copula = _find_copula(sentence, root, subject)
    verbs = auxes if copula is None else sorted([*auxes, copula])

    # A copular clause with no other subject has the wh phrase as subject.
    subject_wh = subject == head or (subject is None and copula is not None and head == root)

    return WhAnalysis(
        question=sentence,
        wh_token=wh,
        wh_phrase=span,
        qtype=qtype,
        root=root,
        aux=auxes[0] if auxes else None,  # an inverted one when there is one
        copula=copula,
        verbs=tuple(verbs),
        subject=subject,
        wh_attachment=sentence.head[head - 1] or head,  # the root attaches to itself
        dangling_preps=_dangling_preps(sentence, wh, head, root),
        subject_wh=subject_wh,
        wh_head=head,
    )
