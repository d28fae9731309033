"""Every reader of an input file reports a bad line the same way: a
DatasetError whose message starts with "<path>: line N: " and whose line_no
is N."""

import json
import pickle
import re

import pytest

from qa2nli.conllu import load_conllu, parse_conllu, read_jsonl, require_key
from qa2nli.engine import PrepositionTable
from qa2nli.errors import ConlluFormatError, ConlluStructureError, DatasetError
from qa2nli.metrics import load_eval_records
from qa2nli.morphology import VerbLexicon
from qa2nli.nli import load_qa_jsonl


def _jsonl(*rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


def _row(tid, form, head):
    return "\t".join((str(tid), form, form.lower(), "X", "_", "_", str(head), "dep", "_", "_"))


REFS = _jsonl({"id": "a", "references": ["Liz called Taylor."]})
HYPS = _jsonl({"id": "a", "declarative": "Liz called Taylor.", "rank": 1})


def _pairs(path):
    return [require_key(obj, "label", str, n, path) for n, obj in read_jsonl(path)]


# (case, bad file's text, reader given its path and a good file, bad line's
# number, message after the location, exception type)
CASES = [
    ("qa", _jsonl({"id": "a", "question": "Who?", "passage": "p", "answer": "x"},
                  {"id": "b", "passage": "p", "answer": "x"}),
     lambda path, tmp: load_qa_jsonl(path, "span"),
     2, "missing key 'question'", DatasetError),
    ("references", REFS + _jsonl({"id": "b", "references": []}),
     lambda path, tmp: load_eval_records(tmp("hyps.jsonl", HYPS), path),
     2, "'references' must be a non-empty list of strings", DatasetError),
    ("hypotheses", HYPS + "not json\n",
     lambda path, tmp: load_eval_records(path, tmp("refs.jsonl", REFS)),
     2, "invalid JSON (Expecting value)", DatasetError),
    ("pairs", _jsonl({"premise": "p", "hypothesis": "h", "label": "entailed"},
                     {"premise": "p", "hypothesis": "h"}),
     lambda path, tmp: _pairs(path),
     2, "missing key 'label'", DatasetError),
    ("conllu-format", f"# sent_id = q1\n{_row(1, 'Hi', 0)}\n2\tthere\n",
     lambda path, tmp: load_conllu(path),
     3, "expected 10 tab-separated columns, got 2", ConlluFormatError),
    ("verb-lexicon-line", "past:go\twent\npast:run ran\n",
     lambda path, tmp: VerbLexicon.from_file(path),
     2, "expected key<TAB>value", DatasetError),
    ("verb-lexicon-key", "# comment\nfuture:go\twill go\n",
     lambda path, tmp: VerbLexicon.from_file(path),
     2, "unknown key prefix 'future:go'", DatasetError),
    ("preposition-table-line", "month\tmay\nweekday\n",
     lambda path, tmp: PrepositionTable.from_file(path),
     2, "expected key<TAB>value", DatasetError),
    ("preposition-table-key", "month\tmay\nplanet\tmars\n",
     lambda path, tmp: PrepositionTable.from_file(path),
     2, "unknown preposition-table key 'planet'", DatasetError),
]


@pytest.mark.parametrize(
    "text, read, line_no, message, kind", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_bad_line_names_file_and_line(tmp_path, text, read, line_no, message, kind):
    def tmp(name, content):
        (tmp_path / name).write_text(content, encoding="utf-8")
        return str(tmp_path / name)

    path = tmp("bad.txt", text)
    with pytest.raises(kind) as err:
        read(path, tmp)
    assert isinstance(err.value, DatasetError)
    assert str(err.value) == f"{path}: line {line_no}: {message}"
    assert err.value.line_no == line_no


@pytest.mark.parametrize("read", [VerbLexicon.from_file, PrepositionTable.from_file])
def test_word_list_errors_are_value_errors(tmp_path, read):
    # a line that is not key<TAB>value, and a line that is not UTF-8
    path = tmp_path / "list.tsv"
    for text in (b"month\n", b"month\tmay\ncaf\xe9\tx\n"):
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line ") as err:
            read(str(path))
        assert isinstance(err.value, DatasetError) and err.value.line_no is not None


def test_conllu_structure_error_names_file(tmp_path):
    # Two roots: no line is to blame, so the message names the sentence.
    path = tmp_path / "two_roots.conllu"
    path.write_text(f"# sent_id = q1\n{_row(1, 'Hi', 0)}\n{_row(2, 'there', 0)}\n",
                    encoding="utf-8")
    with pytest.raises(ConlluStructureError) as err:
        load_conllu(str(path))
    assert isinstance(err.value, DatasetError) and err.value.line_no is None
    assert str(err.value) == (
        f"{path}: sentence 'q1': expected exactly one root, found heads of 0 at [1, 2]"
    )


def test_parse_conllu_names_the_line_only():
    with pytest.raises(ConlluFormatError) as err:
        parse_conllu(f"# sent_id = q1\n{_row(1, 'Hi', 0)}\n2\tthere\n")
    assert str(err.value) == "line 3: expected 10 tab-separated columns, got 2"
    assert err.value.line_no == 3 and isinstance(err.value, DatasetError)


def test_errors_survive_pickling():
    # A worker process hands its error back to its parent by pickling it.
    for err in (ConlluFormatError("bad head '?'", 5), DatasetError("m", 3, "f.jsonl")):
        back = pickle.loads(pickle.dumps(err))
        assert (type(back), str(back), back.line_no) == (type(err), str(err), err.line_no)
