"""CoNLL-U ingestion for dependency-parsed sentences, the one line reader
through which every input file of the package is read, and the JSONL reader
built on it.

Reads the 10-column tab-separated format: '#' lines are comments (sent_id and
text comments are captured), blank lines separate sentences. Multiword token
ranges ("3-4") and empty nodes ("3.1") are skipped, so the surviving ids of a
well-formed sentence are exactly 1..n. A sentence is accepted only if those
ids form a single tree: every head in range, exactly one head of 0, no
cycles. Anything else is rejected outright; downstream modules can therefore
assume tree shape.

A DepSentence stores its tokens by column: one tuple each of forms, lemmas,
upos and xpos tags, heads and deprels, indexed by token id - 1, plus the
ids of each token's children. Every string that one parse_conllu or
load_conllu call reads goes through one pool, so equal strings of a corpus
are one object, and the pool is freed with the corpus. A DepToken is built
only when one is read through tokens, token, children or root; code that
reads many tokens reads the columns instead.

Validation is one linear pass over the rows that also indexes each token's
children, so a DepSentence answers `children` and `root` in O(1) and
`subtree_ids` in time linear in the subtree.
"""

from __future__ import annotations

import io
import re
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cache
from itertools import chain, starmap
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import ConlluFormatError, ConlluStructureError, DatasetError

__all__ = [
    "DepSentence",
    "DepToken",
    "index_by_sent_id",
    "load_conllu",
    "parse_conllu",
    "to_conllu",
]

_COLUMNS = 10
_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(.+?)\s*$")
_TEXT_RE = re.compile(r"^#\s*text\s*=\s*(.+?)\s*$")
_RANGE_ID_RE = re.compile(r"^\d+-\d+$", re.ASCII)
_EMPTY_ID_RE = re.compile(r"^\d+\.\d+$", re.ASCII)


def _refuse_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls: type) -> type:
    """Make every attribute assignment and deletion on cls's instances raise
    FrozenInstanceError.

    The methods that dataclass(frozen=True, slots=True) generates refer to
    the class as it was before slots=True rebuilt it, so for a name that is
    not a field they raise TypeError instead.
    """
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


@_frozen
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


class _Tokens(Sequence):
    """The tokens of one sentence as columns, token i at index i - 1.

    Reads like a tuple of DepTokens: it indexes, iterates, compares, hashes
    and prints as one, and builds each DepToken when it is read. Immutable,
    like the tuple it stands for.
    """

    __slots__ = ("form", "lemma", "upos", "xpos", "head", "deprel")
    form: tuple[str, ...]
    lemma: tuple[str | None, ...]
    upos: tuple[str, ...]
    xpos: tuple[str | None, ...]
    head: tuple[int, ...]
    deprel: tuple[str, ...]

    def __init__(self, *columns: tuple) -> None:
        for name, column in zip(self.__slots__, columns, strict=True):
            object.__setattr__(self, name, column)

    __setattr__ = _refuse_setattr
    __delattr__ = _refuse_delattr

    def __reduce__(self):
        return _Tokens, self._columns()

    def _columns(self) -> tuple[tuple, ...]:
        return (self.form, self.lemma, self.upos, self.xpos, self.head, self.deprel)

    def _token(self, token_id: int) -> DepToken:
        i = token_id - 1
        return DepToken(
            token_id, self.form[i], self.lemma[i], self.upos[i], self.xpos[i], self.head[i],
            self.deprel[i],
        )

    def __len__(self) -> int:
        return len(self.form)

    def __getitem__(self, index):
        ids = range(1, len(self.form) + 1)[index]
        return tuple(map(self._token, ids)) if isinstance(index, slice) else self._token(ids)

    def __iter__(self) -> Iterator[DepToken]:
        return map(self._token, range(1, len(self.form) + 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Tokens):
            return self._columns() == other._columns()
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        # A DepToken hashes as the tuple of its fields, and a tuple's hash
        # depends only on its items' hashes: this is the hash of tuple(self).
        return hash(tuple(zip(range(1, len(self.form) + 1), *self._columns())))

    def __repr__(self) -> str:
        return repr(tuple(self))


@_frozen
@dataclass(frozen=True, slots=True)
class DepSentence:
    """A dependency tree over tokens with ids 1..n.

    tokens may be given as any sequence of DepTokens; it is stored as
    columns (see the module docstring), which the form, lemma, upos, xpos,
    head and deprel properties return. Tree shape (single root, acyclic,
    connected) is validated on construction; an invalid token list raises
    ConlluStructureError.
    """

    tokens: Sequence[DepToken]
    text: str | None = None
    sent_id: str | None = None
    # _children[i]: ids of the dependents of token i in surface order;
    # _children[0] holds the root. Derived from tokens, so it takes no part in
    # ==, hash or repr.
    _children: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, _Tokens):
            tokens = tuple(self.tokens)
            ids = [t.id for t in tokens]
            if ids != list(range(1, len(ids) + 1)):
                raise ConlluStructureError(
                    f"{self._name()}: token ids are not exactly 1..{len(ids)}: {ids}"
                )
            columns = (tuple(getattr(t, name) for t in tokens) for name in _Tokens.__slots__)
            object.__setattr__(self, "tokens", _Tokens(*columns))
        children = _index_tree(self.tokens.head)
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

    # The columns, read-only: sent.form[i - 1] is the form of token i.
    form = property(attrgetter("tokens.form"))
    lemma = property(attrgetter("tokens.lemma"))
    upos = property(attrgetter("tokens.upos"))
    xpos = property(attrgetter("tokens.xpos"))
    head = property(attrgetter("tokens.head"))
    deprel = property(attrgetter("tokens.deprel"))

    def token(self, token_id: int) -> DepToken:
        """Return the token with the given 1-based id."""
        return self.tokens._token(self._check(token_id))

    def _check(self, token_id: int) -> int:
        if not 1 <= token_id < len(self._children):
            raise ValueError(
                f"token id {token_id} out of range 1..{len(self._children) - 1}"
            )
        return token_id

    @property
    def root_id(self) -> int:
        """Id of the unique token whose head is 0."""
        return self._children[0][0]

    @property
    def root(self) -> DepToken:
        """The unique token whose head is 0."""
        return self.tokens._token(self._children[0][0])

    def child_ids(self, token_id: int) -> tuple[int, ...]:
        """Ids of the direct dependents of a token, in surface order."""
        return self._children[self._check(token_id)]

    def children(self, token_id: int) -> tuple[DepToken, ...]:
        """Direct dependents of a token, in surface order."""
        return tuple(map(self.tokens._token, self.child_ids(token_id)))

    def subtree_ids(self, token_id: int) -> frozenset[int]:
        """Ids of the token and all its descendants."""
        members = [self._check(token_id)]
        for tid in members:
            members.extend(self._children[tid])
        return frozenset(members)


def _index_tree(heads: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | str:
    """Children table of the tree over ids 1..n with these heads, or the first
    problem that makes it invalid.

    Problems are reported in a fixed order: no tokens, then the root count,
    then a head beyond n, then a cycle. (Ids other than 1..n are reported
    before all of them, where the ids are known.)
    """
    if not heads:
        return "no tokens"
    n = len(heads)
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    beyond = None
    for tid, head in enumerate(heads, 1):
        if head <= n:
            kids[head].append(tid)
        elif beyond is None:
            beyond = tid
    if len(kids[0]) != 1:
        return f"expected exactly one root, found heads of 0 at {kids[0]}"
    if beyond is not None:
        return f"token {beyond} has head {heads[beyond - 1]} beyond last id {n}"
    # With one root and one in-range head per token, a token's walk up its
    # heads loops exactly when the root cannot reach it: the first token the
    # search from the root misses is the first one whose walk would cycle.
    reached = list(kids[0])
    for tid in reached:
        reached.extend(kids[tid])
    if len(reached) < n:
        seen = set(reached)
        first = next(tid for tid in range(1, n + 1) if tid not in seen)
        return f"cycle through token {first}"
    return tuple(map(tuple, kids))


def _check_row(cols: list[str], line_no: int, path: str | None) -> tuple[int, int] | None:
    """Id and head of a token row that the parser's quick check did not pass,
    or None for a multiword range or empty node.

    Raises:
        ConlluFormatError: the row's first problem, in a fixed order: column
            count, id, head, then DepToken's own checks; with the path, when
            one is given, and the line.
    """
    if len(cols) != _COLUMNS:
        raise ConlluFormatError(
            f"expected {_COLUMNS} tab-separated columns, got {len(cols)}", line_no, path
        )
    raw_id, raw_head = cols[0], cols[6]
    # Ids and heads are ASCII digits: str.isdigit() alone also accepts
    # digits that int() rejects ("²").
    if not (raw_id.isascii() and raw_id.isdigit()):
        if _RANGE_ID_RE.match(raw_id) or _EMPTY_ID_RE.match(raw_id):
            return None  # multiword range / empty node: not a syntactic word
        raise ConlluFormatError(f"bad token id {raw_id!r}", line_no, path)
    if not (raw_head.isascii() and raw_head.removeprefix("-").isdigit()):
        raise ConlluFormatError(f"bad head {raw_head!r}", line_no, path)
    token_id, head = int(raw_id), int(raw_head)
    try:
        DepToken(token_id, cols[1], None, cols[3], None, head, cols[7])
    except ValueError as exc:
        raise ConlluFormatError(str(exc), line_no, path) from exc
    return token_id, head


@cache
def _small_ints() -> dict[str, int]:
    """Ids and heads as ordinary rows write them, with their values.

    One lookup parses a row's id and head and checks them at once; anything
    else (larger numbers, leading zeros, a minus sign, non-digits) takes
    _check_row's full checks. Built on first use, not at import.
    """
    return {str(i): i for i in range(1000)}


def parse_conllu(text: str) -> list[DepSentence]:
    r"""Parse CoNLL-U text into validated sentences.

    Lines split only at "\n", "\r\n" and "\r", as in a file read by
    load_conllu, so a form may hold any other Unicode line separator.

    Raises:
        ConlluFormatError: a malformed line; the message starts with
            "line N: " and err.line_no is N.
        ConlluStructureError: token ids/heads of a sentence are not a tree;
            the message names the sentence.
    """
    return _parse_lines(enumerate(io.StringIO(text, newline=None), start=1))


def _parse_lines(lines: Iterable[tuple[int, str]], path: str | None = None) -> list[DepSentence]:
    r"""Sentences from (line number, line) pairs; a line may keep its "\n".

    Errors name path, when one is given, before the rest of the message.
    """
    sentences: list[DepSentence] = []
    pool: dict[str, str] = {}
    intern = pool.setdefault
    small_ints = _small_ints()
    # One (id, form, lemma, upos, xpos, head, deprel) row per token, in
    # DepToken's field order.
    rows: list[tuple] = []
    sent_id: str | None = None
    sent_text: str | None = None
    # A blank line after the last one ends the last sentence.
    for line_no, line in chain(lines, [(0, "")]):
        if not line.strip():
            if rows:
                ids, *columns = zip(*rows)
                if ids == tuple(range(1, len(ids) + 1)):
                    tokens = _Tokens(*columns)
                else:  # DepSentence reports the ids
                    tokens = tuple(starmap(DepToken, rows))
                try:
                    sentences.append(DepSentence(tokens, sent_text, sent_id))
                except ConlluStructureError as exc:
                    raise ConlluStructureError(str(exc), path=path) from None
                rows = []
            sent_id = sent_text = None
            continue
        if line[0] == "#":
            m = _SENT_ID_RE.match(line)
            if m:
                sent_id = m.group(1)
                continue
            m = _TEXT_RE.match(line)
            if m:
                sent_text = m.group(1)
            continue
        # The newline stays on the last (MISC) column, which is never read.
        cols = line.split("\t")
        # The quick check passes every ordinary row; _check_row sorts out the
        # rest, in the order the checks are made.
        try:
            raw_id, form, lemma, upos, xpos, _, raw_head, deprel, _, _ = cols
            token_id, head = small_ints[raw_id], small_ints[raw_head]
            if token_id < 1 or head == token_id or not form:
                raise ValueError
        except (ValueError, KeyError):
            checked = _check_row(cols, line_no, path)
            if checked is None:
                continue
            token_id, head = checked
        rows.append((
            token_id,
            intern(form, form),
            None if lemma == "_" else intern(lemma, lemma),
            intern(upos, upos),
            None if xpos == "_" else intern(xpos, xpos),
            head,
            intern(deprel, deprel),
        ))
    return sentences


def load_conllu(path: str) -> list[DepSentence]:
    """Parse a CoNLL-U file from disk (UTF-8), one line at a time.

    Lines split as in parse_conllu. Errors are those of parse_conllu, raised
    with the path at the start of the message ("<path>: line N: ..." for a
    malformed line, "<path>: sentence ...: ..." for a sentence that is not a
    tree), or a DatasetError for a line that is not valid UTF-8
    ("<path>: line N: not valid UTF-8").
    """
    return _parse_lines(_read_lines(path), path)


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


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    r"""Yield (line number, object) for each non-blank line of a JSONL file.

    The file is read one line at a time; lines split only at "\n", "\r\n"
    and "\r".

    Raises:
        DatasetError: a line is not valid UTF-8, not valid JSON or not a
            JSON object.
    """
    import json  # not at module level: parses and word lists need no JSON

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
    columns = (sentence.form, sentence.lemma, sentence.upos, sentence.xpos, sentence.head,
               sentence.deprel)
    for token_id, (form, lemma, upos, xpos, head, deprel) in enumerate(zip(*columns), 1):
        lemma = "_" if lemma is None else lemma
        xpos = "_" if xpos is None else xpos
        lines.append(f"{token_id}\t{form}\t{lemma}\t{upos}\t{xpos}\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(lines) + "\n"
