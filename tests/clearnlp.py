"""Relabel a UD CoNLL-U file the way ClearNLP-style parsers (spaCy's English
models, Stanford basic dependencies) label it.

    python tests/clearnlp.py UD.conllu OUT.conllu

Each label that ClearNLP spells differently is renamed (obj -> dobj,
nsubj:pass -> nsubjpass, ...). Each `case` ADP whose head is a nominal
turns into a `prep` that heads that nominal as `pobj`: the ADP takes the
nominal's head, and is the root if the nominal was. Everything else of the
file, comments and other columns included, is copied as it is.

The committed `fixtures/*_clearnlp.conllu` files are this script's output
for the UD fixtures of the same name; tests check both that it still
writes them and that the CLI reads them as it reads the UD originals.
"""

import sys

_CLEARNLP = {
    "nsubj:pass": "nsubjpass",
    "csubj:pass": "csubjpass",
    "aux:pass": "auxpass",
    "obj": "dobj",
    "nmod:poss": "poss",
    "compound:prt": "prt",
}
_NOMINAL = {"NOUN", "PROPN", "PRON", "NUM"}


def _relabel_block(rows: list[list[str]]) -> None:
    """Relabel one sentence's token rows (lists of 10 columns) in place."""
    by_id = {row[0]: row for row in rows}
    for row in rows:
        row[7] = _CLEARNLP.get(row[7], row[7])
    for adp in rows:
        nominal = by_id.get(adp[6])
        if adp[7] == "case" and adp[3] == "ADP" and nominal and nominal[3] in _NOMINAL:
            adp[6], adp[7] = nominal[6], "root" if nominal[6] == "0" else "prep"
            nominal[6], nominal[7] = adp[0], "pobj"


def relabel(text: str) -> str:
    """The ClearNLP-labelled copy of a UD CoNLL-U text."""
    out: list[str] = []
    block: list[list[str]] = []
    for line in [*text.split("\n"), ""]:
        cols = line.split("\t")
        if len(cols) == 10 and cols[0].isdigit():
            block.append(cols)
            continue
        _relabel_block(block)
        out.extend("\t".join(cols) for cols in block)
        block = []
        out.append(line)
    return "\n".join(out[:-1])


if __name__ == "__main__":
    source, target = sys.argv[1:]
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(relabel(text))
