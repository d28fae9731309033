"""CoNLL-U reader: line format, tree validation, round-tripping."""

import copy
import pickle
import re
import string
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles

from qa2nli import conllu
from qa2nli.conllu import (
    DepSentence,
    DepToken,
    index_by_sent_id,
    load_conllu,
    parse_conllu,
    to_conllu,
)
from qa2nli.errors import ConlluFormatError, ConlluStructureError


def _row(tid, form, lemma, upos, head, deprel, xpos="_"):
    return "\t".join(
        (str(tid), form, lemma, upos, xpos, "_", str(head), deprel, "_", "_")
    )


GOOD = "\n".join(
    [
        "# sent_id = q1",
        "# text = Who called Taylor?",
        _row(1, "Who", "who", "PRON", 2, "nsubj", xpos="WP"),
        _row(2, "called", "call", "VERB", 0, "root"),
        _row(3, "Taylor", "Taylor", "PROPN", 2, "obj"),
        _row(4, "?", "?", "PUNCT", 2, "punct"),
        "",
    ]
)


def test_reads_sentence_with_comments():
    sents = parse_conllu(GOOD)
    assert len(sents) == 1
    sent = sents[0]
    assert sent.sent_id == "q1"
    assert sent.text == "Who called Taylor?"
    assert [t.form for t in sent.tokens] == ["Who", "called", "Taylor", "?"]
    assert sent.token(2).lemma == "call"
    assert sent.token(1).xpos == "WP"
    assert sent.token(2).xpos is None  # "_" maps to None
    assert sent.root.id == 2


def test_round_trip():
    sent = parse_conllu(GOOD)[0]
    assert parse_conllu(to_conllu(sent))[0] == sent


def test_writing_and_checking_ids_build_no_token(monkeypatch):
    sent = parse_conllu(GOOD)[0]
    written = to_conllu(sent)
    monkeypatch.setattr(conllu, "DepToken", None)
    assert to_conllu(sent) == written
    with pytest.raises(ConlluStructureError, match=re.escape("exactly 1..4: [1, 2, 3, 5]")):
        parse_conllu(written.replace("\n4\t", "\n5\t"))


def test_comparing_and_hashing_sentences_build_no_token(monkeypatch):
    sent = parse_conllu(GOOD)[0]
    twin = parse_conllu(GOOD)[0]
    others = [
        parse_conllu(GOOD.replace("Taylor\tTaylor", "Tyler\tTaylor"))[0],  # a form
        parse_conllu(GOOD.replace("call\tVERB", "calls\tVERB"))[0],  # a lemma
        parse_conllu(GOOD.replace("\tWP\t", "\t_\t"))[0],  # an xpos
        parse_conllu(GOOD.replace("\t2\tobj", "\t4\tobj"))[0],  # a head
        parse_conllu(GOOD.replace("\tobj\t", "\tiobj\t"))[0],  # a deprel
        parse_conllu(GOOD.replace("# text = Who called Taylor?\n", ""))[0],
        parse_conllu(GOOD.replace("sent_id = q1", "sent_id = q2"))[0],
        parse_conllu(GOOD.replace("\n4\t?\t?\tPUNCT\t_\t_\t2\tpunct\t_\t_", ""))[0],
    ]
    monkeypatch.setattr(conllu, "DepToken", None)
    assert twin == sent and twin is not sent and hash(twin) == hash(sent)
    assert not twin != sent
    for other in others:
        assert other != sent and hash(other) != hash(sent)
    assert len({sent, twin, *others}) == 1 + len(others)


def test_a_sentence_holds_its_columns_and_builds_a_plain_tuple_of_tokens():
    parsed = parse_conllu(GOOD)[0]
    built = DepSentence(parsed.tokens, parsed.text, parsed.sent_id)
    assert {"form", "lemma", "upos", "xpos", "head", "deprel"} <= set(DepSentence.__slots__)
    for sent in (parsed, built):
        assert type(sent.tokens) is tuple and sent.tokens is not sent.tokens
        assert sent.tokens == tuple(map(sent.token, range(1, 5)))
        assert sent.form == ("Who", "called", "Taylor", "?")
        assert sent.xpos == ("WP", None, None, None) and sent.head == (2, 0, 2, 2)
    assert built == parsed and hash(built) == hash(parsed)


def test_blank_text_and_sent_id_comments_read_as_none():
    rows = [_row(1, "Hi", "hi", "INTJ", 0, "root"), ""]
    for comments in (["# sent_id = ", "# text = "], ["# sent_id =", "# text =  \t"]):
        (sent,) = parse_conllu("\n".join([*comments, *rows]))
        assert (sent.sent_id, sent.text) == (None, None)


_LIZ_LEFT = DepSentence(
    (DepToken(1, "Liz", "Liz", "PROPN", "NNP", 2, "nsubj"),
     DepToken(2, "left", "leave", "VERB", "VBD", 0, "root")),
    "Liz left",
    "s1",
)


def _liz_left(field: str, value: str) -> DepSentence:
    """_LIZ_LEFT with one field of the sentence, or of its first token, changed."""
    if field in DepSentence._fields:
        return _LIZ_LEFT._replace(**{field: value})
    liz, left = _LIZ_LEFT.tokens
    return _LIZ_LEFT._replace(tokens=(liz._replace(**{field: value}), left))


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("text", "Liz\nleft"), ("text", "Liz\rleft"), ("text", " Liz left "), ("text", ""),
        ("sent_id", "s\n1"), ("sent_id", ""), ("sent_id", "s1\t"),
        ("form", "L\tiz"), ("form", "L\niz"), ("lemma", "l\r"), ("upos", "PROPN\t"),
        ("xpos", "N\nNP"), ("deprel", "n\tsubj"), ("lemma", "_"), ("xpos", "_"),
    ],
)
def test_to_conllu_refuses_what_would_not_read_back(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        to_conllu(_liz_left(field, value))


@pytest.mark.parametrize(
    ("field", "value"),
    [("text", "Liz  left\u2028now\x0c."), ("sent_id", "_"), ("form", " _ "), ("upos", "_"),
     ("lemma", ""), ("deprel", "nsubj\x85")],
)
def test_to_conllu_writes_what_reads_back(field, value):
    sent = _liz_left(field, value)
    assert parse_conllu(to_conllu(sent)) == [sent]


def test_blank_lines_separate_sentences():
    text = GOOD + "\n" + "\n".join(
        ["# sent_id = q2", _row(1, "Hi", "hi", "INTJ", 0, "root"), ""]
    )
    sents = parse_conllu(text)
    assert [s.sent_id for s in sents] == ["q1", "q2"]


def test_range_and_empty_node_ids_are_skipped():
    text = "\n".join(
        [
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_",
            _row(1, "do", "do", "AUX", 3, "aux"),
            _row(2, "n't", "not", "PART", 3, "advmod"),
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
            _row(3, "know", "know", "VERB", 0, "root"),
        ]
    )
    (sent,) = parse_conllu(text)
    assert [t.id for t in sent.tokens] == [1, 2, 3]


def test_wrong_column_count_reports_line_number():
    text = GOOD.replace(_row(3, "Taylor", "Taylor", "PROPN", 2, "obj"), "3\tTaylor")
    with pytest.raises(ConlluFormatError, match="line 5") as err:
        parse_conllu(text)
    assert err.value.line_no == 5
    assert "10" in str(err.value)


# str.splitlines() also breaks lines at these; CoNLL-U lines end at newlines only.
@pytest.mark.parametrize(
    "sep", ["\x85", "\u2028", "\x0c"], ids=["next-line", "line-separator", "form-feed"]
)
def test_only_newlines_end_a_line(tmp_path, sep):
    form = f"Tay{sep}lor"
    text = GOOD.replace("3\tTaylor\tTaylor", f"3\t{form}\t{form}")
    (sent,) = parse_conllu(text)
    assert sent.token(3).form == form
    path = tmp_path / "sep.conllu"
    path.write_text(text, encoding="utf-8")
    assert load_conllu(path) == [sent]
    # lines after the separator keep their numbers: the bad id is on line 8
    bad = text + "\n" + _row("x", "Hi", "hi", "INTJ", 0, "root") + "\n"
    with pytest.raises(ConlluFormatError) as err:
        parse_conllu(bad)
    assert str(err.value) == "line 8: bad token id 'x'"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(ConlluFormatError) as err:
        load_conllu(path)
    assert str(err.value) == f"{path}: line 8: bad token id 'x'"


def test_bad_token_id():
    # "²" and "٣" pass str.isdigit(); only ASCII digits make an id. The rest
    # are near misses of a range ("1-2") or empty node ("2.1") id.
    for raw_id in ("x", "²", "٣", "٣-٤", "1-", "-1", "1.2.3", "1-2-3", "1..2"):
        with pytest.raises(ConlluFormatError, match=re.escape(f"line 1: bad token id '{raw_id}'")):
            parse_conllu(_row(raw_id, "Hi", "hi", "INTJ", 0, "root"))


def test_bad_head():
    for head in ("?", "--1", "-", "٣"):
        with pytest.raises(ConlluFormatError, match=re.escape(f"line 1: bad head '{head}'")):
            parse_conllu(_row(1, "Hi", "hi", "INTJ", head, "root"))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1, 0), (2, 1), (4, 2)], "not exactly 1..3"),
        ([(1, 0), (2, 0)], "exactly one root"),
        ([(1, 2), (2, 1)], "exactly one root"),  # no head of 0 at all
        ([(1, 0), (2, 5)], "beyond last id"),
        ([(1, 0), (2, 3), (3, 2)], "cycle"),
    ],
)
def test_tree_violations(rows, message):
    text = "\n".join(_row(tid, "w", "w", "X", head, "dep") for tid, head in rows)
    with pytest.raises(ConlluStructureError, match=message):
        parse_conllu(text)


def test_token_validation():
    with pytest.raises(ValueError, match="id must be >= 1"):
        DepToken(id=0, form="x", lemma=None, upos="X", xpos=None, head=1, deprel="dep")
    with pytest.raises(ValueError, match="head must be >= 0"):
        DepToken(id=1, form="x", lemma=None, upos="X", xpos=None, head=-1, deprel="dep")
    with pytest.raises(ValueError, match="itself as head"):
        DepToken(id=1, form="x", lemma=None, upos="X", xpos=None, head=1, deprel="dep")
    with pytest.raises(ValueError, match="empty form"):
        DepToken(id=1, form="", lemma=None, upos="X", xpos=None, head=0, deprel="root")


def test_empty_sentence_rejected():
    with pytest.raises(ConlluStructureError, match="no tokens"):
        DepSentence(tokens=())


def test_navigation_helpers():
    sent = parse_conllu(GOOD)[0]
    assert [t.id for t in sent.children(2)] == [1, 3, 4]
    assert sent.subtree_ids(2) == frozenset({1, 2, 3, 4})
    assert sent.subtree_ids(3) == frozenset({3})
    with pytest.raises(ValueError, match="out of range"):
        sent.token(9)
    with pytest.raises(ValueError, match="out of range"):
        sent.children(0)


def test_index_by_sent_id(tmp_path):
    anon = "\n".join([_row(1, "Hi", "hi", "INTJ", 0, "root"), ""])
    sents = parse_conllu(GOOD + "\n" + anon)
    index = index_by_sent_id(sents)
    assert set(index) == {"q1"}  # the anonymous sentence is dropped
    with pytest.raises(ValueError, match="duplicate sent_id"):
        index_by_sent_id(parse_conllu(GOOD + "\n" + GOOD))


def test_load_conllu(tmp_path):
    path = tmp_path / "one.conllu"
    path.write_text(GOOD, encoding="utf-8")
    (sent,) = load_conllu(path)
    assert sent.sent_id == "q1"


def test_slots_and_index_leave_value_semantics_alone():
    sent = parse_conllu(GOOD)[0]
    cases = (
        (sent, "sent_id"), (sent, "_children"), (sent.tokens[0], "form"),
        (sent, "foo"), (sent, "form"), (sent.tokens[0], "foo"),
    )
    for obj, attr in cases:
        with pytest.raises(AttributeError):
            setattr(obj, attr, "x")
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert not hasattr(sent, "__dict__") and not hasattr(sent.tokens[0], "__dict__")
    twin = parse_conllu(GOOD)[0]
    assert twin is not sent and twin == sent and hash(twin) == hash(sent)
    assert repr(sent) == (
        f"DepSentence(tokens={sent.tokens!r}, text={sent.text!r}, sent_id={sent.sent_id!r})"
    )
    renamed = sent._replace(sent_id="x")
    assert renamed.sent_id == "x" and renamed != sent
    assert [t.id for t in renamed.children(2)] == [1, 3, 4]
    assert renamed.root.id == 2


def test_pickle_and_deepcopy_round_trip_a_parsed_sentence():
    sent = parse_conllu(GOOD)[0]
    for twin in (pickle.loads(pickle.dumps(sent)), copy.deepcopy(sent)):
        assert twin == sent and hash(twin) == hash(sent)
        columns = ("form", "lemma", "upos", "xpos", "head", "deprel")
        assert [getattr(twin, c) for c in columns] == [getattr(sent, c) for c in columns]
        assert twin.child_ids(2) == (1, 3, 4) and twin.root_id == 2


def test_ids_and_heads_of_a_thousand_and_more():
    # Each token heads the next, so ids and heads from 1000 up take the
    # row checks that ordinary rows skip.
    n = 1005
    tokens = tuple(
        DepToken(i, f"w{i}", None, "X", None, i - 1, "root" if i == 1 else "dep")
        for i in range(1, n + 1)
    )
    text = to_conllu(DepSentence(tokens))
    (sent,) = parse_conllu(text)
    assert sent == DepSentence(tokens)
    assert to_conllu(sent) == text
    assert sent.child_ids(1004) == (1005,) and sent.subtree_ids(1000) == set(range(1000, n + 1))
    beyond = text.replace("\t1004\tdep", f"\t{n + 1}\tdep")
    with pytest.raises(ConlluStructureError, match=f"token 1005 has head {n + 1} beyond last id {n}"):
        parse_conllu(beyond)


# -- generated trees -------------------------------------------------------------

GENERATED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _tokens(pairs):
    return tuple(
        DepToken(id=tid, form=f"w{tid}", lemma=None, upos="X", xpos=None, head=head, deprel="dep")
        for tid, head in pairs
    )


@st.composite
def trees(draw, max_size=12):
    """(id, head) pairs of a valid tree over ids 1..n."""
    n = draw(st.integers(1, max_size))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    return [(tid, heads[tid]) for tid in range(1, n + 1)]


@st.composite
def cyclic_trees(draw):
    """A valid tree with one non-root token's head moved into its own subtree."""
    heads = dict(draw(trees()))
    moves = []
    for low in heads:
        up = heads[low]
        while up != 0:
            if heads[up] != 0:
                moves.append((up, low))
            up = heads[up]
    assume(moves)
    tid, head = draw(st.sampled_from(moves))
    heads[tid] = head
    return sorted(heads.items())


@st.composite
def head_arrays(draw):
    """Arbitrary heads, and now and then ids other than 1..n."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()) and draw(st.booleans()):
        ids = draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n))
    else:
        ids = list(range(1, n + 1))
    return [(tid, draw(st.integers(0, n + 2).filter(lambda h, t=tid: h != t))) for tid in ids]


@GENERATED
@given(st.one_of(trees(), cyclic_trees(), head_arrays()))
def test_validation_matches_full_walk_oracle(pairs):
    tokens = _tokens(pairs)
    problem = oracles.oracle_tree_problem(tokens)
    if problem is None:
        DepSentence(tokens=tokens, sent_id="s")
    else:
        with pytest.raises(ConlluStructureError) as err:
            DepSentence(tokens=tokens, sent_id="s")
        assert str(err.value) == f"sentence 's': {problem}"


@GENERATED
@given(trees(max_size=30))
def test_navigation_matches_full_scans(pairs):
    tokens = _tokens(pairs)
    sent = DepSentence(tokens=tokens)
    assert sent.root.id == oracles.oracle_root(tokens)
    for tid in range(1, len(tokens) + 1):
        assert [t.id for t in sent.children(tid)] == oracles.oracle_children(tokens, tid)
        assert sent.subtree_ids(tid) == oracles.oracle_subtree_ids(tokens, tid)


_WORD = st.text(string.ascii_letters + string.digits + "'.,?!-_", min_size=1, max_size=6)
_NOT_BLANK = _WORD.filter(lambda w: w != "_")  # "_" in lemma/xpos reads back as None


@st.composite
def sentences(draw):
    tokens = tuple(
        DepToken(
            id=tid,
            form=draw(_WORD),
            lemma=draw(st.none() | _NOT_BLANK),
            upos=draw(_WORD),
            xpos=draw(st.none() | _NOT_BLANK),
            head=head,
            deprel=draw(_WORD),
        )
        for tid, head in draw(trees())
    )
    text = draw(st.none() | st.lists(_WORD, min_size=1, max_size=4).map(" ".join))
    return DepSentence(tokens=tokens, text=text, sent_id=draw(st.none() | _WORD))


@settings(GENERATED, max_examples=100)
@given(sentences())
def test_round_trip_generated(sent):
    (back,) = parse_conllu(to_conllu(sent))
    assert back == sent and hash(back) == hash(sent)


# Any text, and text made of separators and the blank mark.
_ANY_TEXT = st.text() | st.text(" \t\n\r\x0b\x0c\x1c\x85\u2028_ab")


@GENERATED
@given(_ANY_TEXT, _ANY_TEXT, _ANY_TEXT.filter(bool))
def test_to_conllu_refuses_or_round_trips(text, sent_id, form):
    sent = _liz_left("form", form)._replace(text=text, sent_id=sent_id)
    try:
        written = to_conllu(sent)
    except ValueError:
        return
    assert parse_conllu(written) == [sent]


# -- committed generated corpora ----------------------------------------------


@pytest.mark.parametrize("name", ["gen_qa2d_long_100.conllu", "gen_convert_mc_200.conllu"])
def test_parsed_corpus_matches_full_scans_and_token_rebuild(fixtures_dir, name):
    for sent in load_conllu(fixtures_dir / name):
        tokens = tuple(sent.tokens)
        assert sent.root.id == sent.root_id == oracles.oracle_root(tokens)
        for tid in range(1, len(tokens) + 1):
            assert [t.id for t in sent.children(tid)] == oracles.oracle_children(tokens, tid)
            assert list(sent.child_ids(tid)) == oracles.oracle_children(tokens, tid)
            assert sent.subtree_ids(tid) == oracles.oracle_subtree_ids(tokens, tid)
        rebuilt = DepSentence(tokens=tokens, text=sent.text, sent_id=sent.sent_id)
        assert rebuilt == sent and hash(rebuilt) == hash(sent) and repr(rebuilt) == repr(sent)
        assert sent.tokens == tokens and hash(sent.tokens) == hash(tokens)
        assert repr(sent.tokens) == repr(tokens)


def test_load_retains_little_and_pools_equal_strings(fixtures_dir):
    path = fixtures_dir / "gen_qa2d_long_100.conllu"
    tracemalloc.start()
    try:
        sentences = load_conllu(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_tokens = sum(len(sent) for sent in sentences)
    assert n_tokens == 5267
    assert retained / n_tokens <= 175  # bytes per token, pool and index included
    first = {}
    for sent in sentences:
        for column in (sent.form, sent.lemma, sent.upos, sent.deprel):
            for value in column:
                if value is not None:
                    assert first.setdefault(value, value) is value
    assert len(first) < n_tokens / 10
