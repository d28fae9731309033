"""Seeded input generator for the pipeline benchmark.

Each workload's files come from random.Random("<workload>:<seed>") alone,
so the same seed always gives byte-identical files. The generator does not
import qa2nli: what it writes depends on the seed and this file, never on
the program under test. Question parses are hand-shaped UD trees, written
as CoNLL-U with sent_id equal to the item id.

Shares that the checks rely on are fixed by item position, not drawn, so
they are exact on every seed:

* convert_mc: every 50th item is a yes/no question with no wh word (2 %);
* qa2d_long: every 25th item is such a question (4 %);
* score_corpus: every 50th reference id has no hypotheses (2 %), and rank-1
  exact matches, rank-2/3-only matches and misses cycle 2:1:2 (40/20/40 %).
"""

from __future__ import annotations

import json
import os
import random
import string
from collections import Counter

QTYPES = ("Who", "What", "When", "Where", "Which", "Whose", "Why", "How")
LENGTH_BUCKETS = ("1-9", "10-19", "20-29", "30+")

MC_NON_WH_EVERY = 50
LONG_NON_WH_EVERY = 25
UNSCORED_EVERY = 50
LONG_MIN_TOKENS = 40
LONG_MAX_TOKENS = 80

# -- word pools ----------------------------------------------------------------
# No pool holds a wh word ("who", "what", "when", "how", ...): relative clauses
# use "that", and adverbial clauses never open with "when".

NAMES = [
    "Liz", "Tom", "Maria", "Olga", "Sam", "Nina", "Paul", "Rosa", "Ana", "Boris",
    "Carla", "Dmitri", "Elena", "Farid", "Gwen", "Hana", "Felix", "Greta", "Hugo",
    "Irene", "Jonas", "Klara", "Leo", "Mira",
]
SURNAMES = ["Moreno", "Okafor", "Lindqvist", "Tanaka", "Novak", "Haddad", "Brennan", "Costa"]
NOUNS = [
    "keeper", "gate", "mill", "harbor", "tower", "bridge", "garden", "council", "ferry",
    "lantern", "ledger", "orchard", "chapel", "market", "station", "archive", "workshop",
    "granary", "quarry", "courtyard", "bakery", "museum", "library", "warehouse", "cellar",
    "village", "valley", "river", "island", "coast", "fence", "radiator", "ladder", "window",
    "piano", "banner", "engine", "roof", "barn", "wall", "map", "canoe", "kettle", "compass",
]
ADJS = [
    "old", "northern", "small", "wooden", "crowded", "quiet", "ancient", "narrow", "distant",
    "famous", "broken", "painted", "empty", "busy", "eastern", "stone",
]
PREPS = ["of", "near", "behind", "beside", "across", "beyond", "under", "along", "above"]
VERBS = [  # (past, lemma, past participle)
    ("painted", "paint", "painted"), ("fixed", "fix", "fixed"), ("moved", "move", "moved"),
    ("cleaned", "clean", "cleaned"), ("opened", "open", "opened"),
    ("repaired", "repair", "repaired"), ("counted", "count", "counted"),
    ("stacked", "stack", "stacked"), ("built", "build", "built"), ("sold", "sell", "sold"),
    ("found", "find", "found"), ("bought", "buy", "bought"), ("hid", "hide", "hidden"),
    ("carried", "carry", "carried"), ("guarded", "guard", "guarded"),
    ("inspected", "inspect", "inspected"),
]
INTRANSITIVE = [("stood", "stand"), ("waited", "wait"), ("worked", "work"), ("rested", "rest")]
MARKERS = ["after", "before", "because", "while", "although", "once", "until"]
THINGS = [
    "a lantern", "a map", "a canoe", "a rug", "stamps", "a kettle", "firewood", "a compass",
    "a brass bell", "two chairs", "a ledger", "fresh bread",
]
PLACES = [
    "a bakery", "the museum", "the library", "the harbor", "a hospital", "the mill",
    "the station", "a warehouse", "Lisbon", "the old market", "the chapel", "Geneva",
]
DATES = [
    "1204", "1925", "1984", "2003", "March", "October", "the 1950s", "Monday",
    "March 3, 1921", "the spring of 1861", "noon", "autumn",
]
REASONS = [
    "because of the storm", "to save money", "because the roof leaked",
    "to impress the council", "because of a debt", "to reach the coast",
]
COUNTS = ["two", "three", "five", "seven", "twelve", "forty", "a dozen", "nine"]
NONCE = ["zorbit", "quellan", "frandle", "mivvet", "plorq", "snerrit", "vandrow", "gulpet"]
FILLER = [
    "The weather turned cold early that year.",
    "Most of the town still remembers the long winter.",
    "Several letters from the period survive in the archive.",
    "Nobody expected the repairs to take so long.",
    "A local newspaper covered the story in some detail.",
    "The council met twice a month in the old chapel.",
]


class _Sent:
    """A question under construction: tokens in surface order, heads set later."""

    def __init__(self) -> None:
        self.rows: list[list] = []

    def w(self, form: str, upos: str, lemma: str | None = None) -> int:
        self.rows.append([form, lemma if lemma is not None else form.lower(), upos, None, None])
        return len(self.rows)

    def dep(self, child: int, head: int, deprel: str) -> None:
        self.rows[child - 1][3] = head
        self.rows[child - 1][4] = deprel

    def __len__(self) -> int:
        return len(self.rows)

    def text(self) -> str:
        out = ""
        for form, *_ in self.rows:
            glue = "" if not out or form in ("?", "'s") else " "
            out += glue + form
        return out

    def conllu(self, sid: str) -> str:
        lines = [f"# sent_id = {sid}", f"# text = {self.text()}"]
        for i, (form, lemma, upos, head, deprel) in enumerate(self.rows, start=1):
            if head is None:
                raise AssertionError(f"{sid}: token {i} {form!r} has no head")
            lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
        return "\n".join(lines) + "\n\n"


def _np(s: _Sent, rng: random.Random, pps: int = 0, relcl: bool = False, det: str | None = None) -> int:
    """[det] [adj] noun, then a chain of `pps` PPs each modifying the last noun."""
    d = s.w(det or rng.choice(("the", "a", "the")), "DET")
    adj = s.w(rng.choice(ADJS), "ADJ") if rng.random() < 0.5 else None
    head = s.w(rng.choice(NOUNS), "NOUN")
    s.dep(d, head, "det")
    if adj:
        s.dep(adj, head, "amod")
    last = head
    for _ in range(pps):
        last = _pp(s, rng, last, "nmod")
    if relcl:
        _relcl(s, rng, head)
    return head


def _pp(s: _Sent, rng: random.Random, gov: int, deprel: str, pps: int = 0) -> int:
    case = s.w(rng.choice(PREPS), "ADP")
    noun = _np(s, rng, pps, det="the")
    s.dep(case, noun, "case")
    s.dep(noun, gov, deprel)
    return noun


def _relcl(s: _Sent, rng: random.Random, noun: int) -> None:
    that = s.w("that", "PRON")
    past, lemma = rng.choice(INTRANSITIVE)
    verb = s.w(past, "VERB", lemma)
    s.dep(that, verb, "nsubj")
    s.dep(verb, noun, "acl:relcl")
    _pp(s, rng, verb, "obl", pps=rng.randrange(2))


def _advcl(s: _Sent, rng: random.Random, gov: int) -> None:
    mark = s.w(rng.choice(MARKERS), "SCONJ")
    subj = _np(s, rng, pps=rng.randrange(2))
    past, lemma, _ = rng.choice(VERBS)
    verb = s.w(past, "VERB", lemma)
    s.dep(mark, verb, "mark")
    s.dep(subj, verb, "nsubj")
    s.dep(verb, gov, "advcl")
    obj = _np(s, rng, pps=rng.randrange(3))
    s.dep(obj, verb, "obj")


def _subject(s: _Sent, rng: random.Random, big: bool) -> int:
    """A subject phrase; the caller attaches its head once the verb exists."""
    if big:
        return _np(s, rng, pps=rng.randrange(1, 4), relcl=rng.random() < 0.5)
    name = rng.choice(NAMES)
    return s.w(name, "PROPN", name)


def _tail(s: _Sent, rng: random.Random, verb: int, big: bool, obj: bool) -> None:
    """Object, adjunct PPs and an adverbial clause after the main verb."""
    if obj:
        o = _np(s, rng, pps=rng.randrange(1, 4) if big else 0, relcl=big and rng.random() < 0.4)
        s.dep(o, verb, "obj")
    if big:
        for _ in range(rng.randrange(1, 3)):
            _pp(s, rng, verb, "obl", pps=rng.randrange(3))
        for _ in range(rng.randrange(1, 3)):
            _advcl(s, rng, verb)


def _end(s: _Sent, root: int) -> None:
    s.dep(root, 0, "root")
    q = s.w("?", "PUNCT")
    s.dep(q, root, "punct")


# Each shape builds one question and returns (sentence, qtype, answer pool).
# `big` selects the long qa2d_long variant; otherwise questions stay short.


def _who_subj(rng, big):
    s = _Sent()
    who = s.w("Who", "PRON")
    past, lemma, _ = rng.choice(VERBS)
    v = s.w(past, "VERB", lemma)
    s.dep(who, v, "nsubj")
    if big:
        _tail(s, rng, v, big, obj=True)
    else:
        o = _np(s, rng, det="the")
        s.dep(o, v, "obj")
    _end(s, v)
    return s, "Who", [f"{n} {rng.choice(SURNAMES)}" if big else n for n in rng.sample(NAMES, 4)]


def _do_support(rng, big, wh_builder, qtype, pool, obj, transitive=True):
    s = _Sent()
    wh_head = wh_builder(s)
    did = s.w("did" if big else rng.choice(("did", "does")), "AUX", "do")
    subj_head = _subject(s, rng, big)
    v = s.w(rng.choice(VERBS if transitive else INTRANSITIVE)[1], "VERB")
    s.dep(did, v, "aux")
    s.dep(subj_head, v, "nsubj")
    wh_head(v)
    _tail(s, rng, v, big, obj)
    _end(s, v)
    return s, qtype, rng.sample(pool, 4)


def _what_obj(rng, big):
    def wh(s):
        what = s.w("What", "PRON")
        return lambda v: s.dep(what, v, "obj")

    return _do_support(rng, big, wh, "What", THINGS, obj=False)


def _adverbial(form, qtype, pool):
    def shape(rng, big):
        def wh(s):
            tok = s.w(form, "ADV")
            return lambda v: s.dep(tok, v, "advmod")

        return _do_support(rng, big, wh, qtype, pool, obj=big, transitive=big)

    return shape


def _how_many(rng, big):
    def wh(s):
        how = s.w("How", "ADV")
        many = s.w("many", "ADJ")
        noun = s.w(rng.choice(NOUNS) + "s", "NOUN")
        s.dep(how, many, "advmod")
        s.dep(many, noun, "amod")
        return lambda v: s.dep(noun, v, "obj")

    return _do_support(rng, big, wh, "How", COUNTS, obj=False)


def _which_obj(rng, big):
    def wh(s):
        which = s.w("Which", "DET")
        noun = s.w(rng.choice(NOUNS), "NOUN")
        s.dep(which, noun, "det")
        if big:
            _pp(s, rng, noun, "nmod", pps=rng.randrange(2))
        return lambda v: s.dep(noun, v, "obj")

    return _do_support(rng, big, wh, "Which", [f"the {a} one" for a in ADJS], obj=False)


def _whose_obj(rng, big):
    def wh(s):
        whose = s.w("Whose", "DET")
        noun = s.w(rng.choice(NOUNS), "NOUN")
        s.dep(whose, noun, "nmod:poss")
        return lambda v: s.dep(noun, v, "obj")

    noun_pool = [f"{n}'s {rng.choice(NOUNS)}" for n in NAMES]
    return _do_support(rng, big, wh, "Whose", noun_pool, obj=False)


def _which_subj(rng, big):
    s = _Sent()
    which = s.w("Which", "DET")
    noun = s.w(rng.choice(NOUNS), "NOUN")
    past, lemma, _ = rng.choice(VERBS)
    v = s.w(past, "VERB", lemma)
    s.dep(which, noun, "det")
    s.dep(noun, v, "nsubj")
    o = _np(s, rng, pps=rng.randrange(2), det="the")
    s.dep(o, v, "obj")
    _end(s, v)
    return s, "Which", rng.sample(PLACES, 4)


def _copular(rng, big):
    s = _Sent()
    what = s.w("What", "PRON")
    cop = s.w("is", "AUX", "be")
    d = s.w("the", "DET")
    noun = s.w(rng.choice(("name", "color", "capital", "size", "owner")), "NOUN")
    s.dep(cop, what, "cop")
    s.dep(d, noun, "det")
    s.dep(noun, what, "nsubj")
    last = noun
    for _ in range(rng.randrange(3, 7) if big else 1):
        last = _pp(s, rng, last, "nmod")
    if big:
        _relcl(s, rng, noun)
        _relcl(s, rng, last)
    _end(s, what)
    pool = [f"{n} {rng.choice(SURNAMES)}" for n in rng.sample(NAMES, 4)]
    return s, "What", pool


def _stranded(rng, big):
    s = _Sent()
    which = s.w("Which", "DET")
    noun = s.w(rng.choice(NOUNS), "NOUN")
    did = s.w("did", "AUX", "do")
    s.dep(which, noun, "det")
    subj_head = _subject(s, rng, big)
    _, lemma, _ = rng.choice(VERBS)
    v = s.w(lemma, "VERB")
    s.dep(did, v, "aux")
    s.dep(subj_head, v, "nsubj")
    s.dep(noun, v, "obl")
    o = _np(s, rng, pps=rng.randrange(1, 3) if big else 0)
    s.dep(o, v, "obj")
    to = s.w("to", "ADP")
    s.dep(to, noun, "case")
    if big:
        for _ in range(rng.randrange(1, 3)):
            _advcl(s, rng, v)
    _end(s, v)
    return s, "Which", rng.sample(NAMES, 4)


def _passive_when(rng, big):
    s = _Sent()
    when = s.w("When", "ADV")
    was = s.w("was", "AUX", "be")
    subj_head = _subject(s, rng, big)
    _, lemma, part = rng.choice(VERBS)
    v = s.w(part, "VERB", lemma)
    s.dep(when, v, "advmod")
    s.dep(was, v, "aux:pass")
    s.dep(subj_head, v, "nsubj:pass")
    _tail(s, rng, v, big, obj=False)
    _end(s, v)
    return s, "When", rng.sample(DATES, 4)


def _yes_no(rng, big):
    s = _Sent()
    did = s.w("Did", "AUX", "do")
    subj_head = _subject(s, rng, big)
    _, lemma, _ = rng.choice(VERBS)
    v = s.w(lemma, "VERB")
    s.dep(did, v, "aux")
    s.dep(subj_head, v, "nsubj")
    _tail(s, rng, v, big, obj=True)
    _end(s, v)
    return s, None, rng.sample(["yes", "no", "maybe", "never"], 4)


SHAPES = {
    "who_subject": _who_subj,
    "what_object": _what_obj,
    "when_do": _adverbial("When", "When", DATES),
    "where_do": _adverbial("Where", "Where", PLACES),
    "why_do": _adverbial("Why", "Why", REASONS),
    "how_many": _how_many,
    "which_object": _which_obj,
    "which_subject": _which_subj,
    "whose_object": _whose_obj,
    "copular": _copular,
    "stranded_prep": _stranded,
    "when_passive": _passive_when,
}
# convert_mc: the four tests/synth.py shapes first, then copular, stranded
# preposition and Which/How questions.
MC_SHAPES = (
    "who_subject", "where_do", "when_do", "what_object",
    "copular", "stranded_prep", "which_subject", "how_many",
)
LONG_SHAPES = (
    "who_subject", "what_object", "when_do", "where_do", "why_do", "how_many",
    "which_object", "whose_object", "copular", "stranded_prep", "when_passive",
)


def _passage(rng: random.Random, answer: str) -> str:
    lead = " ".join(rng.sample(FILLER, 2))
    return f"{lead} The record names {answer} in connection with it. {rng.choice(FILLER)}"


def _question(rng: random.Random, index: int, every: int, shapes, big: bool, wh_count: int):
    if index % every == every - 1:
        return "yes_no", _yes_no(rng, big)
    name = shapes[wh_count % len(shapes)]
    return name, SHAPES[name](rng, big)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)


def _length_summary(lengths: list[int]) -> dict:
    ordered = sorted(lengths)
    return {
        "min": ordered[0],
        "median": ordered[len(ordered) // 2],
        "max": ordered[-1],
        "histogram_by_10": dict(sorted(Counter(10 * (n // 10) for n in lengths).items())),
    }


def gen_questions(out_dir: str, workload: str, seed: int, n: int) -> dict:
    """convert_mc (multichoice, short) or qa2d_long (span, 40-80 tokens)."""
    rng = random.Random(f"{workload}:{seed}")
    big = workload == "qa2d_long"
    every = LONG_NON_WH_EVERY if big else MC_NON_WH_EVERY
    shapes = LONG_SHAPES if big else MC_SHAPES
    qa_lines, conllu = [], []
    items, shape_counts, lengths = [], Counter(), []
    wh_count = 0
    for i in range(n):
        sid = f"q{i:06d}"
        while True:
            name, (sent, qtype, pool) = _question(rng, i, every, shapes, big, wh_count)
            if not big or LONG_MIN_TOKENS <= len(sent) <= LONG_MAX_TOKENS:
                break
        if qtype is not None:
            wh_count += 1
        shape_counts[name] += 1
        lengths.append(len(sent))
        correct = rng.randrange(4)
        passage = _passage(rng, pool[correct])
        if big:
            obj = {"id": sid, "question": sent.text(), "passage": passage, "answer": pool[correct]}
            items.append({"id": sid, "wh": qtype is not None, "answers": [pool[correct]]})
        else:
            obj = {
                "id": sid, "question": sent.text(), "passage": passage,
                "options": pool, "correct": correct,
            }
            items.append({
                "id": sid, "wh": qtype is not None, "passage": passage,
                "answers": [pool[correct]] + [o for j, o in enumerate(pool) if j != correct],
            })
        qa_lines.append(json.dumps(obj) + "\n")
        conllu.append(sent.conllu(sid))
    _write_lines(os.path.join(out_dir, "qa.jsonl"), qa_lines)
    _write_lines(os.path.join(out_dir, "parses.conllu"), conllu)
    non_wh = sum(1 for it in items if not it["wh"])
    shapes_out = {
        "items": n,
        "question_tokens": _length_summary(lengths),
        "non_wh_share": non_wh / n,
        "shape_share": {k: v / n for k, v in sorted(shape_counts.items())},
    }
    return {"items": items, "shares": shapes_out}


# -- score_corpus ----------------------------------------------------------------

_PUNCT = str.maketrans("", "", string.punctuation)


def norm(text: str) -> str:
    """Independent oracle for metrics.normalize: lowercase, no punctuation."""
    return " ".join(text.lower().translate(_PUNCT).split())


def _sentence(rng: random.Random, lo: int, hi: int) -> list[str]:
    target = rng.randint(lo, hi)
    words = [rng.choice(("The", "A")), rng.choice(ADJS), rng.choice(NOUNS)]
    past, _, _ = rng.choice(VERBS)
    words += [past, "the", rng.choice(NOUNS)]
    while len(words) < target:
        words += [rng.choice(PREPS), "the", rng.choice(NOUNS)]
    words = words[:target]
    words[-1] += "."
    return words


def _variant(rng: random.Random, words: list[str]) -> list[str]:
    out = list(words)
    i = rng.randrange(1, len(out) - 1) if len(out) > 2 else 0
    out[i] = rng.choice(ADJS + NOUNS)
    return out


def _miss(rng: random.Random, words: list[str], refs: list[str]) -> str:
    """A candidate that normalizes to none of the references."""
    ref_norms = {norm(r) for r in refs}
    while True:
        out = list(words)
        out[rng.randrange(len(out))] = rng.choice(NONCE)
        if rng.random() < 0.5 and len(out) > 3:
            del out[rng.randrange(1, len(out) - 1)]
        text = " ".join(out)
        if norm(text) not in ref_norms:
            return text


def _exact(rng: random.Random, ref: str) -> str:
    """A reference with case and final punctuation changed, still an exact match."""
    variant = ref[:1].lower() + ref[1:]
    return variant.rstrip(".") if rng.random() < 0.5 else variant


def gen_scoring(out_dir: str, seed: int, n_refs: int, n_pairs: int) -> dict:
    rng = random.Random(f"score_corpus:{seed}")
    bucket_ranges = {"1-9": (5, 9), "10-19": (10, 19), "20-29": (20, 29), "30+": (30, 45)}
    ref_lines, hyp_lines = [], []
    expected = {"records": 0, "exact1": 0, "exactk": 0, "by_qtype": Counter(), "by_length": Counter()}
    for i in range(n_refs):
        rid = f"r{i:06d}"
        qtype = QTYPES[i % len(QTYPES)]
        bucket = LENGTH_BUCKETS[(i // len(QTYPES)) % len(LENGTH_BUCKETS)]
        words = _sentence(rng, *bucket_ranges[bucket])
        refs = [" ".join(words)]
        for _ in range(rng.randrange(3)):
            refs.append(" ".join(_variant(rng, words)))
        qa_length = rng.randint(*bucket_ranges[bucket])
        ref_lines.append(json.dumps(
            {"id": rid, "references": refs, "qtype": qtype, "qa_length": qa_length}
        ) + "\n")
        if i % UNSCORED_EVERY == UNSCORED_EVERY - 1:
            continue
        kind = expected["records"] % 5  # 0,1: rank-1 exact; 2: rank 2/3 only; 3,4: miss
        cands = [_miss(rng, words, refs) for _ in range(3)]
        if kind < 2:
            cands[0] = _exact(rng, rng.choice(refs))
            expected["exact1"] += 1
        elif kind == 2:
            cands[rng.choice((1, 2))] = _exact(rng, rng.choice(refs))
        if kind <= 2:
            expected["exactk"] += 1
        expected["records"] += 1
        expected["by_qtype"][qtype] += 1
        expected["by_length"][bucket] += 1
        for rank, text in enumerate(cands, start=1):
            hyp_lines.append(json.dumps({"id": rid, "declarative": text, "rank": rank}) + "\n")
    # Hypotheses arrive shuffled by id, as from a parallel upstream run.
    order = list(range(0, len(hyp_lines), 3))
    rng.shuffle(order)
    hyp_lines = [line for start in order for line in hyp_lines[start:start + 3]]

    pair_lines, vocab = [], set()
    labels = Counter()
    for i in range(n_pairs):
        hyp = " ".join(_sentence(rng, 6, 16))
        label = "entailed" if i % 4 == 0 else "not_entailed"
        labels[label] += 1
        vocab.update(norm(hyp).split())
        pair_lines.append(json.dumps({
            "id": f"p{i // 4:06d}:{i % 4}",
            "premise": " ".join(rng.sample(FILLER, 3)),
            "hypothesis": hyp,
            "label": label,
            "provenance": "correct_answer" if label == "entailed" else "incorrect_option",
        }) + "\n")

    _write_lines(os.path.join(out_dir, "references.jsonl"), ref_lines)
    _write_lines(os.path.join(out_dir, "hypotheses.jsonl"), hyp_lines)
    _write_lines(os.path.join(out_dir, "pairs.jsonl"), pair_lines)
    expected["vocabulary"] = len(vocab)
    expected["labels"] = dict(labels)
    records = expected["records"]
    shares = {
        "references": n_refs,
        "eval_records": records,
        "analyze_pairs": n_pairs,
        "unscored_reference_share": (n_refs - records) / n_refs,
        "rank1_exact_share": expected["exact1"] / records,
        "topk_exact_share": expected["exactk"] / records,
        "qtypes": len(expected["by_qtype"]),
        "length_buckets": len(expected["by_length"]),
    }
    return {"expected": expected, "shares": shares}


def generate(workload: str, out_dir: str, seed: int, size: int) -> dict:
    """Write one workload's inputs into out_dir; return what the checks expect."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "score_corpus":
        return gen_scoring(out_dir, seed, size, 4 * size)
    return gen_questions(out_dir, workload, seed, size)
