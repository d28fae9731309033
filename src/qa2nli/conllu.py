"""CoNLL-U ingestion for dependency-parsed sentences, and the one line
reader through which every input file of the package is read.

Reads the 10-column tab-separated format: '#' lines are comments (sent_id and
text comments are captured), blank lines separate sentences. Multiword token
ranges ("3-4") and empty nodes ("3.1") are skipped, so the surviving ids of a
well-formed sentence are exactly 1..n. A sentence is accepted only if those
ids form a single tree: every head in range, exactly one head of 0, no
cycles. Anything else is rejected outright; downstream modules can therefore
assume tree shape.

Validation is one linear pass over the tokens that also indexes each token's
children, so a DepSentence answers `children` and `root` in O(1) and
`subtree_ids` in time linear in the subtree.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from .errors import ConlluFormatError, ConlluStructureError, DatasetError

_COLUMNS = 10
_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(.+?)\s*$")
_TEXT_RE = re.compile(r"^#\s*text\s*=\s*(.+?)\s*$")
_RANGE_ID_RE = re.compile(r"^\d+-\d+$", re.ASCII)
_EMPTY_ID_RE = re.compile(r"^\d+\.\d+$", re.ASCII)


@dataclass(frozen=True, slots=True)
class DepToken:
    """One syntactic word of a parsed sentence.

    lemma and xpos are None when the file carried "_" in that column.
    head is 0 for the root token.
    """

    id: int
    form: str
    lemma: str | None
    upos: str
    xpos: str | None
    head: int
    deprel: str

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"token id must be >= 1, got {self.id}")
        if self.head < 0:
            raise ValueError(f"token head must be >= 0, got {self.head}")
        if self.head == self.id:
            raise ValueError(f"token {self.id} has itself as head")
        if not self.form:
            raise ValueError(f"token {self.id} has an empty form")


@dataclass(frozen=True, slots=True)
class DepSentence:
    """A dependency tree over tokens with ids 1..n.

    Tree shape (single root, acyclic, connected) is validated on
    construction; an invalid token list raises ConlluStructureError.
    """

    tokens: tuple[DepToken, ...]
    text: str | None = None
    sent_id: str | None = None
    # _children[i]: dependents of token i in surface order; _children[0] holds
    # the root. Derived from tokens, so it takes no part in ==, hash or repr.
    _children: tuple[tuple[DepToken, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        children = _index_tree(self.tokens)
        if isinstance(children, str):
            raise ConlluStructureError(f"{self._name()}: {children}")
        object.__setattr__(self, "_children", children)

    def _name(self) -> str:
        if self.sent_id:
            return f"sentence {self.sent_id!r}"
        if self.tokens:
            head = " ".join(t.form for t in self.tokens[:4])
            return f"sentence starting {head!r}"
        return "empty sentence"

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, token_id: int) -> DepToken:
        """Return the token with the given 1-based id."""
        if not 1 <= token_id <= len(self.tokens):
            raise ValueError(
                f"token id {token_id} out of range 1..{len(self.tokens)}"
            )
        return self.tokens[token_id - 1]

    @property
    def root(self) -> DepToken:
        """The unique token whose head is 0."""
        return self._children[0][0]

    def children(self, token_id: int) -> tuple[DepToken, ...]:
        """Direct dependents of a token, in surface order."""
        return self._children[self.token(token_id).id]

    def subtree_ids(self, token_id: int) -> frozenset[int]:
        """Ids of the token and all its descendants."""
        members = [self.token(token_id)]
        for t in members:
            members.extend(self._children[t.id])
        return frozenset(t.id for t in members)


def _index_tree(
    tokens: tuple[DepToken, ...],
) -> tuple[tuple[DepToken, ...], ...] | str:
    """Children table of a valid tree, or the first problem that makes it invalid.

    Problems are reported in a fixed order: ids not 1..n, then the root count,
    then a head beyond n, then a cycle.
    """
    if not tokens:
        return "no tokens"
    n = len(tokens)
    kids: list[list[DepToken]] = [[] for _ in range(n + 1)]
    ids_ok = True
    beyond = None
    for i, t in enumerate(tokens, 1):
        if t.id != i:
            ids_ok = False
        if t.head <= n:
            kids[t.head].append(t)
        elif beyond is None:
            beyond = t
    if not ids_ok:
        return f"token ids are not exactly 1..{n}: {[t.id for t in tokens]}"
    if len(kids[0]) != 1:
        roots = [t.id for t in kids[0]]
        return f"expected exactly one root, found heads of 0 at {roots}"
    if beyond is not None:
        return f"token {beyond.id} has head {beyond.head} beyond last id {n}"
    # With one root and one in-range head per token, a token's walk up its
    # heads loops exactly when the root cannot reach it: the first token the
    # search from the root misses is the first one whose walk would cycle.
    reached = list(kids[0])
    for t in reached:
        reached.extend(kids[t.id])
    if len(reached) < n:
        seen = {t.id for t in reached}
        first = next(tid for tid in range(1, n + 1) if tid not in seen)
        return f"cycle through token {first}"
    return tuple(map(tuple, kids))


def _parse_token_line(line: str, line_no: int) -> DepToken | None:
    cols = line.split("\t")
    if len(cols) != _COLUMNS:
        raise ConlluFormatError(
            f"expected {_COLUMNS} tab-separated columns, got {len(cols)}",
            line_no,
        )
    raw_id = cols[0]
    # Ids and heads are ASCII digits: str.isdigit() alone also accepts
    # digits that int() rejects ("²").
    if not (raw_id.isascii() and raw_id.isdigit()):
        if _RANGE_ID_RE.match(raw_id) or _EMPTY_ID_RE.match(raw_id):
            return None  # multiword range / empty node: not a syntactic word
        raise ConlluFormatError(f"bad token id {raw_id!r}", line_no)
    if not (cols[6].isascii() and cols[6].removeprefix("-").isdigit()):
        raise ConlluFormatError(f"bad head {cols[6]!r}", line_no)
    try:
        return DepToken(
            id=int(raw_id),
            form=cols[1],
            lemma=None if cols[2] == "_" else cols[2],
            upos=cols[3],
            xpos=None if cols[4] == "_" else cols[4],
            head=int(cols[6]),
            deprel=cols[7],
        )
    except ValueError as exc:
        raise ConlluFormatError(str(exc), line_no) from exc


def parse_conllu(text: str) -> list[DepSentence]:
    r"""Parse CoNLL-U text into validated sentences.

    Lines split only at "\n", "\r\n" and "\r", as in a file read by
    load_conllu, so a form may hold any other Unicode line separator.

    Raises:
        ConlluFormatError: a malformed line, with its line number.
        ConlluStructureError: token ids/heads of a sentence are not a tree.
    """
    return _parse_lines(enumerate(io.StringIO(text, newline=None), start=1))


def _parse_lines(lines: Iterable[tuple[int, str]]) -> list[DepSentence]:
    r"""Sentences from (line number, line) pairs; a line may keep its "\n"."""
    sentences: list[DepSentence] = []
    tokens: list[DepToken] = []
    sent_id: str | None = None
    sent_text: str | None = None
    # A blank line after the last one ends the last sentence.
    for line_no, line in chain(lines, [(0, "")]):
        if not line.strip():
            if tokens:
                sentences.append(DepSentence(tokens=tuple(tokens), text=sent_text, sent_id=sent_id))
            tokens, sent_id, sent_text = [], None, None
            continue
        if line.startswith("#"):
            m = _SENT_ID_RE.match(line)
            if m:
                sent_id = m.group(1)
                continue
            m = _TEXT_RE.match(line)
            if m:
                sent_text = m.group(1)
            continue
        # The newline stays on the last (MISC) column, which is never read.
        tok = _parse_token_line(line, line_no)
        if tok is not None:
            tokens.append(tok)
    return sentences


def load_conllu(path: str) -> list[DepSentence]:
    """Parse a CoNLL-U file from disk (UTF-8), one line at a time.

    Lines split as in parse_conllu. Errors are those of parse_conllu, their
    messages prefixed by the path, or a DatasetError for a line that is not
    valid UTF-8 ("<path>: line N: not valid UTF-8").
    """
    try:
        return _parse_lines(_read_lines(path))
    except (ConlluFormatError, ConlluStructureError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    r"""Yield (line number, line) for each line of a UTF-8 text file.

    Every input file of the package is read here. Lines split only at
    "\n", "\r\n" and "\r", as in text-mode reading, and each line but
    perhaps the last ends in "\n".

    Raises:
        DatasetError: a line is not valid UTF-8, with the path and line.
    """
    # A bad byte decodes to a lone surrogate, which does not encode back.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DatasetError("not valid UTF-8", line_no, path) from None
            yield line_no, line


def index_by_sent_id(sentences: list[DepSentence]) -> dict[str, DepSentence]:
    """Map sent_id comments to sentences, for sidecar alignment.

    Sentences without a sent_id are dropped; duplicate ids are an error.
    """
    out: dict[str, DepSentence] = {}
    for sent in sentences:
        if sent.sent_id is None:
            continue
        if sent.sent_id in out:
            raise ValueError(f"duplicate sent_id {sent.sent_id!r}")
        out[sent.sent_id] = sent
    return out


def to_conllu(sentence: DepSentence) -> str:
    """Serialize a sentence back to CoNLL-U.

    Round-trips through parse_conllu to an equal DepSentence. Columns this
    module does not model (feats, deps, misc) are written as "_".
    """
    lines: list[str] = []
    if sentence.sent_id is not None:
        lines.append(f"# sent_id = {sentence.sent_id}")
    if sentence.text is not None:
        lines.append(f"# text = {sentence.text}")
    for t in sentence.tokens:
        lines.append(
            "\t".join(
                (
                    str(t.id),
                    t.form,
                    t.lemma if t.lemma is not None else "_",
                    t.upos,
                    t.xpos if t.xpos is not None else "_",
                    "_",
                    str(t.head),
                    t.deprel,
                    "_",
                    "_",
                )
            )
        )
    return "\n".join(lines) + "\n"
