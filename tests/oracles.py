"""Independent reference implementations used to pin expected test values.

Deliberately written the slow, obvious way (list scans, no Counter, no
shared helpers with the package) so that agreement with the package is
meaningful. The two exceptions are oracle_plan_realize, which takes the
answer cleanup and preposition choice from the package and redoes only
the splicing and joining, token by token, and oracle_iter_rewrites, which
takes analysis, planning and realization from the package and redoes only
their order, one example at a time. Run as a script to print the
constants frozen in the metric tests:

    python3 tests/oracles.py
"""

import math
import re
import string


def _norm_tokens(text):
    out = []
    for tok in text.lower().split():
        tok = "".join(ch for ch in tok if ch not in string.punctuation)
        if tok:
            out.append(tok)
    return out


def _ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_corpus_bleu(hypotheses, references):
    """Plain BLEU-4: clipped precision over the corpus, no smoothing."""
    hyp_toks = [_norm_tokens(h) for h in hypotheses]
    ref_toks = [[_norm_tokens(r) for r in rs] for rs in references]
    hyp_len = sum(len(h) for h in hyp_toks)
    ref_len = 0
    for h, rs in zip(hyp_toks, ref_toks):
        lens = sorted(len(r) for r in rs)
        best = lens[0]
        for rl in lens:
            if abs(rl - len(h)) < abs(best - len(h)):
                best = rl
        ref_len += best
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in (1, 2, 3, 4):
        clipped = 0
        total = 0
        for h, rs in zip(hyp_toks, ref_toks):
            grams = _ngram_list(h, n)
            total += len(grams)
            for gram in set(grams):
                max_ref = max((_ngram_list(r, n).count(gram) for r in rs), default=0)
                clipped += min(grams.count(gram), max_ref)
        if total == 0 or clipped == 0:
            return 0.0
        log_sum += 0.25 * math.log(clipped / total)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum)


def oracle_sentence_bleu(hypothesis, references):
    """Add-1 smoothed BLEU, order capped at the hypothesis length."""
    h = _norm_tokens(hypothesis)
    rs = [_norm_tokens(r) for r in references]
    if not h or not rs:
        return 0.0
    n_max = min(4, len(h))
    log_sum = 0.0
    for n in range(1, n_max + 1):
        grams = _ngram_list(h, n)
        clipped = 0
        for gram in set(grams):
            max_ref = max((_ngram_list(r, n).count(gram) for r in rs), default=0)
            clipped += min(grams.count(gram), max_ref)
        log_sum += math.log((clipped + 1) / (len(grams) + 1)) / n_max
    lens = sorted(len(r) for r in rs)
    best = lens[0]
    for rl in lens:
        if abs(rl - len(h)) < abs(best - len(h)):
            best = rl
    bp = 1.0 if len(h) >= best else math.exp(1.0 - best / len(h))
    return 100.0 * bp * math.exp(log_sum)


def oracle_topk(candidate_groups, references):
    """Top-k match: (exact-match rate in percent, corpus BLEU of the picks).

    Each item's pick is its first candidate that normalizes to a reference,
    else the first candidate with the highest smoothed sentence BLEU.
    """
    picks = []
    matched = 0
    for cands, refs in zip(candidate_groups, references):
        ref_toks = [_norm_tokens(r) for r in refs]
        pick = None
        for cand in cands:
            if _norm_tokens(cand) in ref_toks:
                pick = cand
                matched += 1
                break
        if pick is None:
            best = None
            for cand in cands:
                score = oracle_sentence_bleu(cand, refs)
                if best is None or score > best:
                    pick, best = cand, score
        picks.append(pick)
    return 100.0 * matched / len(candidate_groups), oracle_corpus_bleu(picks, references)


def oracle_pmi(items, k):
    """Document-level smoothed PMI; returns {label: {word: value}}."""
    docs = [(set(_norm_tokens(text)), label) for text, label in items]
    labels = sorted({label for _, label in docs})
    n = len(docs)
    out = {}
    for label in labels:
        class_docs = [words for words, lab in docs if lab == label]
        n_c = len(class_docs)
        vocab_c = set()
        for words in class_docs:
            vocab_c |= words
        table = {}
        for word in vocab_c:
            c_wc = sum(1 for words in class_docs if word in words)
            c_w = sum(1 for words, _ in docs if word in words)
            table[word] = math.log(((c_wc + k) * n) / ((c_w + k * len(labels)) * n_c))
        out[label] = table
    return out



def oracle_tree_problem(tokens):
    """The tree check the package ran before it indexed children, kept verbatim.

    Returns the first problem with a token tuple's ids/heads, or None for a
    valid tree.
    """
    if not tokens:
        return "no tokens"
    n = len(tokens)
    ids = [t.id for t in tokens]
    if ids != list(range(1, n + 1)):
        return f"token ids are not exactly 1..{n}: {ids}"
    roots = [t.id for t in tokens if t.head == 0]
    if len(roots) != 1:
        return f"expected exactly one root, found heads of 0 at {roots}"
    for t in tokens:
        if t.head > n:
            return f"token {t.id} has head {t.head} beyond last id {n}"
    # Single root and one in-range parent per node: a cycle is the only way
    # left to break treehood, and it leaves its members unable to reach 0.
    for t in tokens:
        seen = {t.id}
        cur = t.head
        while cur != 0:
            if cur in seen:
                return f"cycle through token {t.id}"
            seen.add(cur)
            cur = tokens[cur - 1].head
    return None


def oracle_children(tokens, token_id):
    """Ids of the tokens whose head is token_id, by a full scan."""
    return [t.id for t in tokens if t.head == token_id]


def oracle_subtree_ids(tokens, token_id):
    """Ids of token_id and every token whose head chain passes through it."""
    out = set()
    for t in tokens:
        cur = t.id
        while cur != 0:
            if cur == token_id:
                out.add(t.id)
                break
            cur = tokens[cur - 1].head
    return out


def oracle_root(tokens):
    """Id of the one token whose head is 0."""
    return [t.id for t in tokens if t.head == 0][0]


def oracle_span_head(tokens, span):
    """The head of an inclusive (start, end) span of token ids, by the rule
    the rewrite engine applied to the wh phrase before analyze reported its
    head: the span token whose head lies outside the span; where several
    do, the one whose subtree covers most of the span, the leftmost on a tie.

    Returns (head, the ids of the span tokens whose head lies outside it).
    """
    ids = set(range(span[0], span[1] + 1))
    external = [t.id for t in tokens if t.id in ids and t.head not in ids]
    head = max(external, key=lambda tid: (len(oracle_subtree_ids(tokens, tid) & ids), -tid))
    return head, external


# The patterns the CoNLL-U reader matched sent_id and text comments with
# before it split them at "=": a value starts and ends with a non-space, so
# "# text = " gives no text.
SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(\S.*?)\s*$")
TEXT_RE = re.compile(r"^#\s*text\s*=\s*(\S.*?)\s*$")


def oracle_comments(lines):
    """(sent_id, text) that a sentence's comment lines give, read with the
    regexes, each line in turn; a later match replaces an earlier one."""
    sent_id = text = None
    for line in lines:
        m = SENT_ID_RE.match(line)
        if m:
            sent_id = m.group(1)
            continue
        m = TEXT_RE.match(line)
        if m:
            text = m.group(1)
    return sent_id, text


_CLOSING = frozenset({",", ".", ";", ":", "!", "%", ")", "]", "}", "n't"})


def oracle_join(tokens, text=""):
    """The package's _join before it joined runs of plain tokens at once, kept
    verbatim: text with tokens appended one at a time, each after one space,
    except none at the start, before closing punctuation or a clitic, or
    after an opening bracket."""
    for tok in tokens:
        if text and not (tok in _CLOSING or tok.startswith("'") or text[-1] in "([{"):
            text += " "
        text += tok
    return text


def oracle_realize(tokens):
    """The package's realize before plans pre-joined their body, kept verbatim:
    the whole token list joined one token at a time."""
    toks = [t for t in tokens if t and t != "?"]
    if not toks:
        raise ValueError("nothing to realize")
    pieces = [toks[0]]
    for tok in toks[1:]:
        glue = " "
        if tok in {",", ".", ";", ":", "!", "%", ")", "]", "}"} or tok.startswith("'") or tok == "n't":
            glue = ""
        elif pieces[-1] and pieces[-1][-1] in "([{":
            glue = ""
        pieces.append(glue + tok)
    text = "".join(pieces)
    for i, ch in enumerate(text):
        if ch.isalpha():
            text = text[:i] + ch.upper() + text[i + 1 :]
            break
    if not text.endswith("."):
        text += "."
    return text


def oracle_plan_realize(plan, answer):
    """plan.realize(answer) as it was before plans pre-joined their body: each
    candidate splices the answer into the plan's whole body and realizes the
    result with oracle_realize. Returns (text, tokens, applied_rules, rank)
    per candidate, or raises TransformError with the package's message.
    """
    from qa2nli import engine
    from qa2nli.errors import TransformError

    def candidate(tokens, rules, rank):  # DeclarativeCandidate's checks
        try:
            text = oracle_realize(tokens)
        except ValueError as exc:
            raise TransformError(str(exc)) from exc
        if "?" in text:
            raise TransformError("candidate text may not contain '?'")
        return text, tuple(t for t in tokens if t and t != "?"), (*rules, "realize"), rank

    def splice(answer_tokens, prep):
        head, tail = plan.body[: plan.insert_index], plan.body[plan.insert_index :]
        if prep is None:
            return [*head, *answer_tokens, *plan.residual, *tail], plan.insert_rules
        source = "pied" if plan.link[0] == "pied" else "table"
        return (
            [*head, prep, *answer_tokens, *plan.residual, *tail],
            (f"prep:{prep}({source})", *plan.insert_rules),
        )

    table = plan.config.table
    answer_clean = engine._clean_answer(answer)
    if not answer_clean:
        raise TransformError("answer is empty after trimming")
    articled = engine.insert_article(answer_clean, table.article_orgs)
    rules = plan.rules + ("article:the",) if articled != answer_clean else plan.rules
    answer_tokens = articled.split()
    options = plan._prepositions(answer_clean, table)

    tokens, extra = splice(answer_tokens, options[0] if options else None)
    if plan.link is not None and not options:
        extra = (*extra, "prep:none")
    candidates = [candidate(tokens, rules + extra, 1)]
    if plan.config.emit_alternatives > 1:
        if plan.flip is not None and answer_tokens[0][:1].isupper():
            candidates.append(
                candidate(
                    [*answer_tokens, *plan.flip.tail_tokens],
                    rules + ("insert:copular_flip",),
                    len(candidates) + 1,
                )
            )
        for prep in options[1:]:
            if len(candidates) >= plan.config.emit_alternatives:
                break
            tokens, extra = splice(answer_tokens, prep)
            candidates.append(candidate(tokens, rules + extra, len(candidates) + 1))
    return candidates


def oracle_iter_rewrites(examples, config, skips, *, negatives="all", seed=0):
    """The package's iter_rewrites before it worked in batches, kept verbatim:
    analyze, plan and realize one example at a time, then the next."""
    import random

    from qa2nli.analysis import analyze
    from qa2nli.engine import plan_question
    from qa2nli.errors import AnalysisError, NotWhQuestionError, TransformError
    from qa2nli.nli import NEGATIVE_POLICIES, AnswerOption, Provenance, SkipRecord

    if negatives not in NEGATIVE_POLICIES:
        raise ValueError(f"negatives must be one of {NEGATIVE_POLICIES}, got {negatives!r}")
    for example in examples:
        if example.parse is None:
            skips.append(SkipRecord(example.id, "parse", "no dependency parse for this id"))
            continue
        try:
            analysis = analyze(example.parse)
        except (NotWhQuestionError, AnalysisError) as exc:
            skips.append(SkipRecord(example.id, "analysis", str(exc)))
            continue

        if example.answerable:
            correct = example.correct_options
            if not correct:
                skips.append(SkipRecord(example.id, "options", "no correct answer"))
                continue
            wrong = example.incorrect_options
            if wrong and negatives == "one-random":
                wrong = (random.Random(f"{seed}:{example.id}").choice(wrong),)
            todo = [(correct[0], Provenance.CORRECT_ANSWER)]
            todo += [(o, Provenance.INCORRECT_OPTION) for o in wrong]
        elif example.options:
            todo = [(example.options[0], Provenance.UNANSWERABLE)]
        else:
            skips.append(
                SkipRecord(example.id, "options", "unanswerable without a plausible answer")
            )
            continue
        try:
            plan = plan_question(analysis, config)
        except TransformError as exc:  # the question itself cannot be rewritten
            skips.append(SkipRecord(example.id, "transform", str(exc)))
            continue

        n = 0
        yielded: dict[str, AnswerOption] = {}  # rank-1 text -> the answer yielded with it
        for option, provenance in todo:
            try:
                candidates = plan.realize(option.text)
            except TransformError as exc:
                skips.append(SkipRecord(example.id, "transform", str(exc), option=option.text))
                continue
            text = candidates[0].text
            earlier = yielded.get(text)
            if earlier is not None:  # one hypothesis twice, or under both labels
                if earlier.correct:
                    reason = "same hypothesis as the correct answer"
                else:
                    reason = f"same hypothesis as option {earlier.text!r}"
                skips.append(SkipRecord(example.id, "options", reason, option=option.text))
                continue
            yielded[text] = option
            yield f"{example.id}:{n}", example, provenance, candidates
            n += 1


# -- fixed cases --------------------------------------------------------------

BLEU_CASES = {
    "perfect": (
        ["the cat sat on the mat"],
        [["the cat sat on the mat"]],
    ),
    "degenerate": (
        ["the the the the"],
        [["the cat"]],
    ),
    "partial_corpus": (
        ["the cat sat on the mat", "the cat the cat on the mat"],
        [["the cat sat on the mat"], ["the cat sat on the mat"]],
    ),
    "short_hyp": (
        ["the cat sat on"],
        [["the cat sat on the mat"]],
    ),
    "two_refs": (
        ["the cat sat on the mat quietly"],
        [["the cat sat on the mat", "the cat sat quietly"]],
    ),
}

SENT_CASES = {
    "exact_short": ("Paris.", ["paris"]),
    "near_miss": ("the cat sat on the mat", ["the cat sat on the red mat"]),
}

PMI_ITEMS = [
    ("the dog barked", "e"),
    ("the dog slept", "e"),
    ("a cat slept", "e"),
    ("the dog flew", "n"),
    ("a cat flew", "n"),
    ("a bird flew", "n"),
]


def main():
    for name, (hyps, refs) in BLEU_CASES.items():
        print(f"corpus {name}: {oracle_corpus_bleu(hyps, refs)!r}")
    for name, (hyp, refs) in SENT_CASES.items():
        print(f"sentence {name}: {oracle_sentence_bleu(hyp, refs)!r}")
    table = oracle_pmi(PMI_ITEMS, k=0.0)
    for label in table:
        ranked = sorted(table[label].items(), key=lambda kv: (-kv[1], kv[0]))
        print(f"pmi k=0 {label}: {[(w, round(v, 6)) for w, v in ranked]}")
    table100 = oracle_pmi(PMI_ITEMS, k=100.0)
    for label in table100:
        ranked = sorted(table100[label].items(), key=lambda kv: (-kv[1], kv[0]))
        print(f"pmi k=100 {label}: {[(w, round(v, 8)) for w, v in ranked]}")


if __name__ == "__main__":
    main()
