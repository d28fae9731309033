"""The one reader of input files: blocks of whole lines read the same at any
block size, and the readers built on it see the same lines, numbers and
errors as ever."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from qa2nli import conllu, nli
from qa2nli.conllu import load_conllu, parse_conllu, read_jsonl, sentence_starts
from qa2nli.engine import DeclarativeCandidate
from qa2nli.errors import ConlluFormatError, DatasetError
from qa2nli.nli import Label, NliPair, Provenance

FIXTURES = Path(__file__).parent / "fixtures"
SIZES = range(1, 13)
GENERATED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _row(tid, form, head, deprel="dep"):
    return "\t".join((str(tid), form, form.lower(), "X", "_", "_", str(head), deprel, "_", "_"))


# Lines that end in "\r\n", "\r" and "\n", a form with a 4-byte UTF-8
# character, blank lines of spaces, and a last line with no line end.
MIXED = "".join([
    "# sent_id = s1\r\n",
    "# text = Liz 😀 left\r\n",
    _row(1, "Liz", 3, "nsubj") + "\r\n",
    _row(2, "😀", 3) + "\r",
    _row(3, "left", 0, "root") + "\r\n",
    " \t\r\n",
    "# sent_id = s2\n",
    "#text=Zoë stayed\n",
    _row(1, "Zoë", 2, "nsubj") + "\r",
    _row(2, "stayed", 0, "root"),
]).encode("utf-8")


@pytest.fixture
def block_size(monkeypatch):
    """set(n) makes the reader read n bytes a block, before the rest of the
    last line; set(None) restores the size."""

    def set_size(n):
        monkeypatch.undo()
        if n is not None:
            monkeypatch.setattr(conllu, "_BLOCK_BYTES", n)

    return set_size


def _numbered_lines(path):
    return [
        (line_no, line)
        for first, lines in conllu._read_blocks(path)
        for line_no, line in enumerate(lines, first)
    ]


def test_blocks_hold_whole_lines_at_every_size(tmp_path, block_size):
    path = tmp_path / "mixed.conllu"
    path.write_bytes(MIXED)
    text = MIXED.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    expected = list(enumerate(text.split("\n"), 1))
    assert _numbered_lines(path) == expected
    for n in SIZES:
        block_size(n)
        assert _numbered_lines(path) == expected, n
        assert all(lines for _, lines in conllu._read_blocks(path)), n


def test_every_parse_loads_alike_at_every_block_size(tmp_path, block_size):
    mixed = tmp_path / "mixed.conllu"
    mixed.write_bytes(MIXED)
    paths = [*sorted(FIXTURES.glob("*.conllu")), mixed]
    expected = {path: load_conllu(path) for path in paths}
    assert expected[mixed] == parse_conllu(MIXED.decode("utf-8"))
    assert [sent.text for sent in expected[mixed]] == ["Liz 😀 left", "Zoë stayed"]
    for n in SIZES:
        block_size(n)
        for path in paths:
            assert load_conllu(path) == expected[path], (n, path.name)


def test_every_jsonl_file_reads_alike_at_every_block_size(block_size):
    paths = sorted(FIXTURES.glob("*.jsonl"))
    expected = {path: list(read_jsonl(path)) for path in paths}
    for n in SIZES:
        block_size(n)
        for path in paths:
            assert list(read_jsonl(path)) == expected[path], (n, path.name)


BOM = "\ufeff".encode("utf-8")
WORD_LISTS = sorted((Path(conllu.__file__).parent / "data").glob("*.tsv"))


def test_a_leading_byte_order_mark_is_skipped_at_every_block_size(tmp_path, block_size):
    mixed = tmp_path / "mixed.conllu"
    mixed.write_bytes(MIXED)
    plain = [mixed, *sorted(FIXTURES.glob("*.conllu")), *sorted(FIXTURES.glob("*.jsonl")),
             *WORD_LISTS]
    marked = tmp_path / "marked"
    marked.mkdir()
    readers = {".conllu": load_conllu, ".jsonl": lambda path: list(read_jsonl(path)),
               ".tsv": _numbered_lines}
    for path in plain:
        (marked / path.name).write_bytes(BOM + path.read_bytes())
    for n in (None, *SIZES):
        block_size(n)
        for path in plain:
            read = readers[path.suffix]
            assert read(marked / path.name) == read(path), (n, path.name)


def test_a_file_of_only_a_byte_order_mark_is_empty(tmp_path, block_size):
    path = tmp_path / "bom.conllu"
    path.write_bytes(BOM)
    for n in (None, *SIZES):
        block_size(n)
        assert list(conllu._read_blocks(path)) == [], n
        assert load_conllu(path) == [] and list(read_jsonl(path)) == [], n


def test_a_byte_order_mark_past_the_start_is_data(tmp_path, block_size):
    path = tmp_path / "qa.jsonl"
    path.write_bytes(BOM + '{"id": "\ufeffa", "q": "x \ufeff"}\n\ufeff{"id": "b"}\n'.encode("utf-8"))
    for n in (None, *SIZES):
        block_size(n)
        lines = read_jsonl(path)
        assert next(lines) == (1, {"id": "\ufeffa", "q": "x \ufeff"}), n
        with pytest.raises(DatasetError) as err:
            next(lines)
        assert str(err.value).startswith(f"{path}: line 2: invalid JSON (Unexpected UTF-8 BOM"), n


# (case, bytes, line of the first byte that is not UTF-8)
BAD_BYTES = [
    ("first-line", b"caf\xe9\n" + MIXED, 1),
    ("after-crlf-lines", MIXED.replace(b"stayed\t", b"stay\xe9d\t"), 10),
    ("last-line-no-end", MIXED + b"\n\n# caf\xe9", 12),
    ("cut-4-byte-char", MIXED.replace("😀".encode("utf-8"), "😀".encode("utf-8")[:3], 1), 2),
]


@pytest.mark.parametrize(
    "data, line_no", [case[1:] for case in BAD_BYTES], ids=[case[0] for case in BAD_BYTES]
)
def test_a_bad_byte_has_one_line_number_at_every_block_size(tmp_path, block_size, data, line_no):
    path = tmp_path / "bad.conllu"
    path.write_bytes(data)
    for n in (None, *SIZES):
        block_size(n)
        with pytest.raises(DatasetError) as err:
            load_conllu(path)
        assert type(err.value) is DatasetError, n
        assert str(err.value) == f"{path}: line {line_no}: not valid UTF-8", n


def test_a_malformed_row_before_a_bad_byte_in_its_block_is_reported(tmp_path, block_size):
    parses = tmp_path / "bad.conllu"
    parses.write_bytes(
        f"# sent_id = q1\n{_row(1, 'Hi', 0)}\n2\tthere\n{_row(3, 'you', 1)}\n".encode("utf-8")
        + b"# caf\xe9\n"
    )
    qa = tmp_path / "bad.jsonl"
    qa.write_bytes(b'{"id": "a"}\n{"id": \n{"id": "caf\xe9"}\n')
    for n in (None, *SIZES):
        block_size(n)
        with pytest.raises(ConlluFormatError) as err:
            load_conllu(parses)
        assert str(err.value) == f"{parses}: line 3: expected 10 tab-separated columns, got 2"
        with pytest.raises(DatasetError) as err:
            list(read_jsonl(qa))
        assert str(err.value) == f"{qa}: line 2: invalid JSON (Expecting value)"


# -- byte ranges of a CoNLL-U file ----------------------------------------------

RANGE_SIZES = (None, 1, 5, 12)
RANGED = ["qa2d_fixtures.conllu", "gen_qa2d_long_100.conllu", "multichoice_20.conllu"]


def _ranges(path, parts):
    """(the cuts of sentence_starts, the sentences of each byte range)."""
    starts = sentence_starts(path, parts)
    offsets = [0, *(offset for offset, _ in starts), None]
    return starts, [load_conllu(path, a, b) for a, b in zip(offsets, offsets[1:])]


@pytest.mark.parametrize("copy", ["plain", "crlf", "bom"])
@pytest.mark.parametrize("name", RANGED)
def test_byte_ranges_parse_to_the_sentences_of_the_whole_file(tmp_path, block_size, name, copy):
    data = (FIXTURES / name).read_bytes()
    path = tmp_path / name
    path.write_bytes({"plain": data, "crlf": data.replace(b"\n", b"\r\n"), "bom": BOM + data}[copy])
    for n in RANGE_SIZES:
        block_size(n)
        whole = load_conllu(path)
        for parts in range(2, 7):
            starts, ranges = _ranges(path, parts)
            assert len(starts) == parts - 1 and all(ranges), (n, parts)
            assert [sent for part in ranges for sent in part] == whole, (n, parts)
            assert [sent_id for _, sent_id in starts] == [part[0].sent_id for part in ranges[1:]]


def test_a_named_pipe_has_no_cuts_and_is_not_opened(tmp_path, monkeypatch):
    fifo = tmp_path / "parses.conllu"
    os.mkfifo(fifo)  # opening it to read would wait for a writer

    def no_open(*args, **kwargs):
        raise AssertionError("opened")

    monkeypatch.setattr(conllu, "open", no_open, raising=False)
    assert sentence_starts(fifo, 2) is None


def _sentence(sent_id_line, form):
    return f"{sent_id_line}\n{_row(1, form, 0, 'root')}\n"


def test_a_cut_with_no_whitespace_only_line_after_it_gives_none(tmp_path):
    path = tmp_path / "parses.conllu"
    rows = "".join(_row(i, "w", 0 if i == 1 else 1) + "\n" for i in range(1, 40))
    path.write_text("# sent_id = a\n" + rows, encoding="utf-8")
    assert sentence_starts(path, 2) is None
    path.write_text(f"{_sentence('# sent_id = a', 'Hi')}\n# sent_id = b\n{rows}", encoding="utf-8")
    assert sentence_starts(path, 2) is None  # the only blank line lies before the cut


# (case, the comment lines of the sentence after the cut, the sent_id read there)
OPENING_COMMENTS = [
    ("spaced", "# sent_id = b", "b"),
    ("unspaced", "#sent_id=x", "x"),
    ("after-text", "# text = Hi\n# sent_id = b", "b"),
    ("none", "# text = Hi", None),
    ("no-comment", "", None),
]


@pytest.mark.parametrize(
    "comments, sent_id", [case[1:] for case in OPENING_COMMENTS],
    ids=[case[0] for case in OPENING_COMMENTS],
)
def test_the_sent_id_at_a_cut_is_that_of_its_comment_lines(tmp_path, block_size, comments, sent_id):
    path = tmp_path / "parses.conllu"
    first = _sentence("# sent_id = a\n# text = " + "x" * 200, "Hi")
    path.write_text(f"{first}\n{comments + chr(10) if comments else ''}{_row(1, 'Yo', 0)}\n",
                    encoding="utf-8")
    for n in RANGE_SIZES:
        block_size(n)
        ((offset, found),) = sentence_starts(path, 2)
        assert (offset, found) == (len(first) + 1, sent_id), n
        assert [sent.sent_id for sent in load_conllu(path, offset)] == [sent_id], n


def test_a_bad_byte_in_a_comment_at_a_cut_names_the_path(tmp_path, block_size):
    path = tmp_path / "parses.conllu"
    first = _sentence("# sent_id = a\n# text = " + "x" * 200, "Hi").encode("utf-8")
    path.write_bytes(first + b"\n# caf\xe9\n" + _sentence("# sent_id = b", "Yo").encode("utf-8"))
    for n in RANGE_SIZES:
        block_size(n)
        with pytest.raises(DatasetError) as err:
            sentence_starts(path, 2)
        assert str(err.value) == f"{path}: line 1: not valid UTF-8", n


def test_a_bad_byte_later_in_the_block_at_a_cut_lets_its_sent_id_be_read(tmp_path, block_size):
    """At the default block size the bad byte lies in the block that holds
    the cut; the reader yields the whole lines before it first."""
    path = tmp_path / "parses.conllu"
    first = _sentence("# sent_id = a\n# text = " + "x" * 200, "Hi")
    second = _sentence("# sent_id = b", "Yo")
    path.write_bytes(f"{first}\n{second}\n".encode("utf-8") + b"# caf\xe9\n")
    for n in RANGE_SIZES:
        block_size(n)
        assert sentence_starts(path, 2) == [(len(first) + 1, "b")], n
        with pytest.raises(DatasetError):
            load_conllu(path)


# -- sent_id and text comments ------------------------------------------------

_NO_BREAK = st.text(st.characters(exclude_characters="\n\r"))
_SPACES = st.text(" \t\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=3)
_COMMENTS = st.one_of(
    _NO_BREAK.map("#".__add__),
    st.tuples(
        _SPACES,
        st.sampled_from(["sent_id", "text", "sent_idx", "Text", "", "text id"]),
        _SPACES,
        st.sampled_from(["=", "==", ""]),
        _SPACES,
        _NO_BREAK,
        _SPACES,
    ).map(lambda parts: "#" + "".join(parts)),
)


@GENERATED
@given(st.lists(_COMMENTS, min_size=1, max_size=3))
def test_comments_read_as_the_regexes_read_them(comments):
    (sent,) = parse_conllu("\n".join([*comments, _row(1, "Hi", 0, "root")]) + "\n")
    assert (sent.sent_id, sent.text) == oracles.oracle_comments(comments)


# -- JSON lines ---------------------------------------------------------------

# Any text without a lone surrogate, leaning towards the characters that
# JSON escapes or that other readers take for line breaks.
_TEXT = st.text(
    st.characters(exclude_categories=("Cs",))
    | st.sampled_from(["\u2028", "\x85", "\x0b", "\r", "\n", "😀", "\U0010ffff", '"', "\\"])
)
_PAIRS = st.builds(
    NliPair, _TEXT, _TEXT, _TEXT, st.sampled_from(Label), st.sampled_from(Provenance)
)
_CANDIDATES = st.builds(
    DeclarativeCandidate,
    _TEXT.filter(lambda text: "?" not in text).map(lambda text: text + "."),
    st.just(()),
    st.lists(_TEXT).map(tuple),
    st.integers(1, 20),
)


@settings(GENERATED, max_examples=100)
@given(
    st.lists(_PAIRS, max_size=4),
    st.lists(st.tuples(_TEXT, st.lists(_CANDIDATES, max_size=3)), max_size=3),
    st.integers(1, 12),
)
def test_read_jsonl_reads_back_what_the_writers_wrote(pairs, items, size):
    declaratives = [
        {"id": example_id, "declarative": c.text, "rank": c.rank,
         "applied_rules": list(c.applied_rules)}
        for example_id, candidates in items
        for c in candidates
    ]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(conllu, "_BLOCK_BYTES", size)
        pairs_path, decl_path = os.path.join(tmp, "pairs.jsonl"), os.path.join(tmp, "decl.jsonl")
        with open(pairs_path, "w", encoding="utf-8") as out:
            nli.write_pairs(pairs, out)
        with open(decl_path, "w", encoding="utf-8") as out:
            for example_id, candidates in items:
                nli.write_declaratives(out, example_id, candidates)
        assert list(read_jsonl(pairs_path)) == [
            (line_no, pair.to_dict()) for line_no, pair in enumerate(pairs, 1)
        ]
        assert list(read_jsonl(decl_path)) == list(enumerate(declaratives, 1))


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\udbff x", "\\ude00\\ud83d"])
def test_a_lone_surrogate_escape_names_its_file_and_line(tmp_path, escape):
    path = tmp_path / "qa.jsonl"
    for line in (f'{{"id": "a", "text": "{escape}"}}', f'{{"{escape}": "a"}}'):
        path.write_text(f'{{"id": "ok"}}\n\n{line}\n', encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            list(read_jsonl(path))
        assert str(err.value) == (
            f"{path}: line 3: not valid Unicode: a \\u escape of a lone surrogate"
        )


def test_a_surrogate_pair_escape_and_an_escaped_backslash_load(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text(
        '{"a": "\\ud83d\\ude00", "b": "\\uD83D\\uDE00", "c": "\\\\ud800"}\n', encoding="utf-8"
    )
    expected = {"a": "😀", "b": "😀", "c": "\\ud800"}
    assert json.loads(path.read_text(encoding="utf-8")) == expected
    assert list(read_jsonl(path)) == [(1, expected)]
