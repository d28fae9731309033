"""CoNLL-U ingestion for dependency-parsed sentences, the one reader through
which every input file of the package is read, and the JSONL reader built on
it.

The reader hands out a file, or one byte range of it, in blocks of whole
lines: _BLOCK_BYTES bytes, then the rest of the last line, each block
decoded from UTF-8 once and split at "\n" once. The CoNLL-U parser runs one
loop over each block's lines; read_jsonl and the word-list readers number
the same lines. The command line's --jobs cuts a CoNLL-U file into byte
ranges that each start a sentence (sentence_starts) and parses each range
in its own process (load_conllu with a start and a stop).

Reads the 10-column tab-separated format: '#' lines are comments (sent_id and
text comments are captured), blank lines separate sentences. Multiword token
ranges ("3-4") and empty nodes ("3.1") are skipped, so the surviving ids of a
well-formed sentence are exactly 1..n. A sentence is accepted only if those
ids form a single tree: every head in range, exactly one head of 0, no
cycles. Anything else is rejected outright; downstream modules can therefore
assume tree shape.

A DepSentence is its columns: one tuple each of forms, lemmas, upos and
xpos tags, heads and deprels, indexed by token id - 1, plus the ids of each
token's children. Every string that one parse_conllu or load_conllu call
reads goes through one pool, so equal strings of a corpus are one object,
and the pool is freed with the corpus. A DepToken is built only when one is
read through tokens, token, children or root, and tokens builds the whole
tuple on each read; code that reads many tokens reads len(sentence) and the
columns instead.

Validation is one linear pass over the rows that also indexes each token's
children, so a DepSentence answers `children` and `root` in O(1) and
`subtree_ids` in time linear in the subtree.
"""

from __future__ import annotations

import io
import os
import re
import sys
from functools import cache
from itertools import chain, starmap
from typing import Iterable, Iterator, NamedTuple

from .errors import ConlluFormatError, ConlluStructureError, DatasetError

__all__ = [
    "DepSentence",
    "DepToken",
    "index_by_sent_id",
    "load_conllu",
    "parse_conllu",
    "sentence_starts",
    "to_conllu",
]

_COLUMNS = 10
# Bytes per read of an input file, before the rest of its last line.
_BLOCK_BYTES = 1 << 16
_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


class _Record:
    """Base of a record that is not a tuple, because it stores its fields in
    another form, keeps more than its fields, or leaves some out of its hash.

    _fields names the constructor's arguments in order: they make up the
    record's value, which == compares, _replace copies and pickle saves.
    _shown names the fields that hash and repr read. Like a NamedTuple, a
    record refuses every assignment and deletion.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _shown: tuple[str, ...]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values(self._fields)), **changes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self._fields) == other._values(self._fields)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._shown))

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._values(self._fields)


class _Checked:
    """Base of a NamedTuple whose __new__ checks its values, listed before
    the fields class: _make, and so _replace, deepcopy and every pickle
    protocol build through __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, values: Iterable):
        return cls(*values)

    def __reduce__(self):
        # Pickle protocols 0 and 1 would otherwise rebuild the tuple unchecked.
        return type(self), tuple(self)


class _DepTokenFields(NamedTuple):
    id: int
    form: str
    lemma: str | None
    upos: str
    xpos: str | None
    head: int
    deprel: str


class DepToken(_Checked, _DepTokenFields):
    """One syntactic word of a parsed sentence.

    lemma and xpos are None when the file carried "_" in that column.
    head is 0 for the root token.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: int,
        form: str,
        lemma: str | None,
        upos: str,
        xpos: str | None,
        head: int,
        deprel: str,
    ) -> DepToken:
        if id < 1:
            raise ValueError(f"token id must be >= 1, got {id}")
        if head < 0:
            raise ValueError(f"token head must be >= 0, got {head}")
        if head == id:
            raise ValueError(f"token {id} has itself as head")
        if not form:
            raise ValueError(f"token {id} has an empty form")
        return tuple.__new__(cls, (id, form, lemma, upos, xpos, head, deprel))


class DepSentence(_Record):
    """A dependency tree over tokens with ids 1..n.

    Built from DepTokens with ids 1..n, in order; it keeps no DepToken but
    their columns (see the module docstring), which the form, lemma, upos,
    xpos, head and deprel attributes hold. Reading tokens builds the tuple
    of DepTokens anew each time. Tree shape (single root, acyclic,
    connected) is validated on construction; an invalid token list raises
    ConlluStructureError.
    """

    # _children[i]: ids of the dependents of token i in surface order;
    # _children[0] holds the root. Derived from the heads, so it takes no part
    # in ==, hash or repr.
    __slots__ = (
        "form", "lemma", "upos", "xpos", "head", "deprel", "text", "sent_id", "_children",
    )
    _fields = _shown = ("tokens", "text", "sent_id")
    # What == and hash read: the same values as tokens, whose ids are always
    # 1..n, with no DepToken built.
    _compared = __slots__[:8]
    form: tuple[str, ...]
    lemma: tuple[str | None, ...]
    upos: tuple[str, ...]
    xpos: tuple[str | None, ...]
    head: tuple[int, ...]
    deprel: tuple[str, ...]
    text: str | None
    sent_id: str | None
    _children: tuple[tuple[int, ...], ...]

    def __init__(
        self, tokens: Iterable[DepToken], text: str | None = None, sent_id: str | None = None
    ) -> None:
        # No tokens give seven empty columns, which __post_init__ refuses.
        self._store(tuple(zip(*tokens)) or ((),) * 7, text, sent_id)
        self.__post_init__()

    @classmethod
    def _columnar(
        cls, columns: Iterable[tuple], text: str | None, sent_id: str | None
    ) -> DepSentence:
        """The sentence whose tokens hold these seven columns, in DepToken's
        field order; each token's values are taken as checked, but not the
        ids."""
        self = object.__new__(cls)
        self._store(columns, text, sent_id)
        self.__post_init__()
        return self

    def _store(self, columns: Iterable[tuple], text: str | None, sent_id: str | None) -> None:
        ids, *columns = columns
        for name, value in zip(self.__slots__[:8], (*columns, text, sent_id), strict=True):
            object.__setattr__(self, name, value)
        if ids != tuple(range(1, len(ids) + 1)):
            raise ConlluStructureError(
                f"{self._name()}: token ids are not exactly 1..{len(ids)}: {list(ids)}"
            )

    def __post_init__(self) -> None:
        """Index the tree, or raise ConlluStructureError. A method of its
        own, looked up on the class, so that benchmarks/spans.py can time
        tree validation by wrapping it."""
        children = _index_tree(self.head)
        if isinstance(children, str):
            raise ConlluStructureError(f"{self._name()}: {children}")
        object.__setattr__(self, "_children", children)

    def _name(self) -> str:
        if self.sent_id:
            return f"sentence {self.sent_id!r}"
        if self.form:
            return f"sentence starting {' '.join(self.form[:4])!r}"
        return "empty sentence"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self._compared) == other._values(self._compared)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._compared))

    def __len__(self) -> int:
        return len(self.form)

    @property
    def tokens(self) -> tuple[DepToken, ...]:
        """The tokens in id order, built on each read."""
        return tuple(starmap(DepToken, self._rows()))

    def _rows(self) -> Iterator[tuple]:
        """Each token's values, in DepToken's field order, with no DepToken built."""
        columns = (self.form, self.lemma, self.upos, self.xpos, self.head, self.deprel)
        return zip(range(1, len(self.form) + 1), *columns)

    def _token(self, token_id: int) -> DepToken:
        i = token_id - 1
        return DepToken(
            token_id, self.form[i], self.lemma[i], self.upos[i], self.xpos[i], self.head[i],
            self.deprel[i],
        )

    def token(self, token_id: int) -> DepToken:
        """Return the token with the given 1-based id."""
        return self._token(self._check(token_id))

    def _check(self, token_id: int) -> int:
        if not 1 <= token_id < len(self._children):
            raise ValueError(f"token id {token_id} out of range 1..{len(self._children) - 1}")
        return token_id

    @property
    def root_id(self) -> int:
        """Id of the unique token whose head is 0."""
        return self._children[0][0]

    @property
    def root(self) -> DepToken:
        """The unique token whose head is 0."""
        return self._token(self._children[0][0])

    def child_ids(self, token_id: int) -> tuple[int, ...]:
        """Ids of the direct dependents of a token, in surface order."""
        return self._children[self._check(token_id)]

    def children(self, token_id: int) -> tuple[DepToken, ...]:
        """Direct dependents of a token, in surface order."""
        return tuple(map(self._token, self.child_ids(token_id)))

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
        # A multiword token range ("3-4") or an empty node ("3.1"): two ASCII
        # numbers around one "-" or ".", and not a syntactic word.
        if raw_id.isascii() and any(
            first.isdigit() and rest.isdigit() for first, _, rest in map(raw_id.partition, "-.")
        ):
            return None
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
    return _parse_blocks([(1, io.StringIO(text, newline=None).read().split("\n"))])


def _parse_blocks(blocks: Iterable, path: str | None = None) -> list[DepSentence]:
    """Sentences from (first line number, lines) blocks, as _read_blocks
    gives them.

    Errors name path, when one is given, before the rest of the message.
    """
    sentences: list[DepSentence] = []
    pool: dict[str, str] = {}
    intern = pool.setdefault
    small_ints = _small_ints()
    # One (id, form, lemma, upos, xpos, head, deprel) row per token, in
    # DepToken's field order.
    rows: list[tuple] = []
    # The "# key = value" comments of the sentence, such as sent_id and text.
    comments: dict[str, str] = {}
    # A blank line after the last block ends the last sentence.
    for first, lines in chain(blocks, [(0, [""])]):
        for line_no, line in enumerate(lines, first):
            if not line or line.isspace():
                if rows:
                    text, sent_id = comments.get("text"), comments.get("sent_id")
                    try:
                        sentences.append(DepSentence._columnar(zip(*rows), text, sent_id))
                    except ConlluStructureError as exc:
                        raise ConlluStructureError(str(exc), path=path) from None
                    rows = []
                comments = {}
                continue
            if line[0] == "#":
                _read_comment(line, comments)
                continue
            cols = line.split("\t")
            # The quick check passes every ordinary row; _check_row sorts out
            # the rest, in the order the checks are made.
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


def _read_comment(line: str, comments: dict[str, str]) -> None:
    """Keep the key and value of a "# key = value" comment line in comments."""
    # Spaces around the key and value are optional; a value that is only
    # whitespace is no value.
    key, _, value = line[1:].partition("=")
    if value := value.strip():
        comments[key.strip()] = value


def load_conllu(path: str, start: int = 0, stop: int | None = None) -> list[DepSentence]:
    """Parse a CoNLL-U file from disk (UTF-8), one block of lines at a time.

    Lines split as in parse_conllu. Errors are those of parse_conllu, raised
    with the path at the start of the message ("<path>: line N: ..." for a
    malformed line, "<path>: sentence ...: ..." for a sentence that is not a
    tree), or a DatasetError for a line that is not valid UTF-8
    ("<path>: line N: not valid UTF-8"), each for the first bad line.

    With start and stop, only the bytes from offset start up to stop (None:
    the end) are parsed, and lines are numbered from 1 at start. Offsets
    that sentence_starts gives cut the file into ranges that parse to the
    sentences of the whole file, in order.
    """
    return _parse_blocks(_read_blocks(path, start, stop), path)


def sentence_starts(path: str, parts: int) -> list[tuple[int, str | None]] | None:
    """The offsets that cut a CoNLL-U file into parts byte ranges of about
    equal size, each with the sent_id of the sentence that opens its range;
    None when the file is not a regular file or a cut finds no
    whitespace-only line after it.

    Cut i seeks to byte size*i//parts, passes the rest of the line it lands
    in, and falls just after the next whitespace-only line. A parse of the
    whole file starts afresh there too, so the ranges parse to the
    sentences of the whole file, in order. The sent_id is the one the
    comment lines at the cut give before the first row, or None when they
    give none or no row follows. The file is read a line at a time, never
    whole.

    Raises:
        OSError: the file cannot be read.
        DatasetError: the lines read at a cut are not valid UTF-8.
    """
    if not os.path.isfile(path):  # reading a pipe would use up its data
        return None
    size = os.path.getsize(path)
    starts = []
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(size * i // parts)
            fh.readline()
            while not (line := fh.readline()).isspace():
                if not line:
                    return None
            starts.append((fh.tell(), _opening_sent_id(path, fh.tell())))
    return starts


def _opening_sent_id(path: str, offset: int) -> str | None:
    """The sent_id of the comment lines that open the sentence at offset."""
    comments: dict[str, str] = {}
    for _, lines in _read_blocks(path, offset, None):
        for line in lines:
            if line[:1] != "#":
                return None if not line or line.isspace() else comments.get("sent_id")
            _read_comment(line, comments)
    return None


def _read_blocks(
    path: str, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, list[str]]]:
    r"""Yield (first line number, lines) for each block of whole lines of a
    UTF-8 text file, or of its bytes from start to stop (None: the end);
    the lines hold no "\n".

    Every input file of the package is read here: _BLOCK_BYTES bytes at a
    time, and then the rest of the last line. Lines split only at "\n",
    "\r\n" and "\r", as in text-mode reading, and are numbered from 1 at
    start. start and stop fall at the start of a line, just after a "\n",
    so no range splits a line or a UTF-8 sequence. A byte-order mark
    (U+FEFF) at offset 0 is skipped; one anywhere else is data.

    Raises:
        DatasetError: a line is not valid UTF-8, with the path and line,
            after the lines before it are yielded.
    """
    line_no = 1
    left = sys.maxsize if stop is None else stop - start  # bytes not yet read
    with open(path, "rb") as fh:
        if start:  # a pipe, which cannot seek, is read from its start
            fh.seek(start)
        while block := fh.read(min(_BLOCK_BYTES, left)):
            block += fh.readline(left - len(block))
            left -= len(block)
            if line_no == 1 and not start:  # the first line is whole in the first block
                block = block.removeprefix(_BOM)
                if not block:
                    break  # the file is the mark alone
            if b"\r" in block:  # a block ends at "\n" or at the end, never inside "\r\n"
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                whole = block[: block.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
                yield line_no, whole.split("\n")[:-1]
                raise DatasetError("not valid UTF-8", line_no + whole.count("\n"), path) from None
            lines = text.removesuffix("\n").split("\n")
            yield line_no, lines
            line_no += len(lines)


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    r"""Yield (line number, object) for each non-blank line of a JSONL file.

    Lines split as in parse_conllu.

    Raises:
        DatasetError: a line is not valid UTF-8, not valid JSON, not a
            JSON object, or holds a lone surrogate through a \u escape.
    """
    import json  # not at module level: parses and word lists need no JSON

    escape = re.compile(r"\\u[dD][89a-fA-F]")  # a JSON escape of a surrogate
    for first, lines in _read_blocks(path):
        for line_no, line in enumerate(lines, first):
            if not line or line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"invalid JSON ({exc.msg})", line_no, path) from exc
            if not isinstance(obj, dict):
                raise DatasetError("expected a JSON object", line_no, path)
            # json.loads joins a pair of surrogates into one character but
            # keeps one that stands alone. A backslash is found faster than an
            # escape, and most lines have none.
            if "\\" in line and escape.search(line):
                if re.search("[\ud800-\udfff]", json.dumps(obj, ensure_ascii=False)):
                    raise DatasetError(
                        "not valid Unicode: a \\u escape of a lone surrogate", line_no, path
                    )
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

    Raises:
        ValueError: a value that would not read back as it is, named by its
            field: a tab or line break in any string; a text or sent_id
            that is empty or starts or ends with whitespace; a lemma or xpos
            of "_", which reads back as None.
    """
    lines: list[str] = []
    for name in ("sent_id", "text"):
        value = getattr(sentence, name)
        if value is not None:
            _check_writable(name, value)
            lines.append(f"# {name} = {value}")
    for name in ("form", "lemma", "upos", "xpos", "deprel"):
        for value in getattr(sentence, name):
            if value is not None:
                _check_writable(name, value)
    for token_id, form, lemma, upos, xpos, head, deprel in sentence._rows():
        lemma = "_" if lemma is None else lemma
        xpos = "_" if xpos is None else xpos
        lines.append(f"{token_id}\t{form}\t{lemma}\t{upos}\t{xpos}\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(lines) + "\n"


def _check_writable(name: str, value: str) -> None:
    """Raise ValueError unless value reads back as it is from the field
    called name."""
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{name} {value!r} holds a tab or line break")
    if name in ("sent_id", "text") and (not value or value != value.strip()):
        raise ValueError(f"{name} {value!r} is empty or starts or ends with whitespace")
    if name in ("lemma", "xpos") and value == "_":
        raise ValueError(f"{name} '_' reads back as None")
