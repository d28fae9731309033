"""Correctness checks on the outputs of one workload run.

Every function returns {check name: bool}. The checks know only what the
generator stated about its inputs; they never ask the program under test
for the expected answer.
"""

from __future__ import annotations

import json
import re

LABEL_OF = {
    "correct_answer": "entailed",
    "incorrect_option": "not_entailed",
    "unanswerable": "not_entailed",
}


def _lower_first_alpha(text: str) -> str:
    # The realizer uppercases the first letter of the sentence, which may
    # fall inside the answer ("a bakery" -> "A bakery hosted ...").
    for i, ch in enumerate(text):
        if ch.isalpha():
            return text[:i] + ch.lower() + text[i + 1 :]
    return text


def _contains(text: str, answer: str) -> bool:
    answer = answer.strip()
    return answer in text or answer in _lower_first_alpha(text)


def skipped_ids(stderr_text: str) -> set[str]:
    """Ids of the items the CLI reported as skipped (JSON lines on stderr)."""
    out = set()
    for line in stderr_text.splitlines():
        if line.startswith("{"):
            out.add(json.loads(line)["id"])
    return out


def _declaratives(texts: list[str]) -> dict[str, bool]:
    return {
        "declarative_ends_with_period": all(t.endswith(".") for t in texts),
        "declarative_has_no_question_mark": all("?" not in t for t in texts),
    }


def check_convert(out_text: str, stderr_text: str, items: list[dict]) -> dict[str, bool]:
    rows = [json.loads(line) for line in out_text.splitlines()]
    by_item: dict[str, list[dict]] = {}
    for row in rows:
        by_item.setdefault(row["id"].rsplit(":", 1)[0], []).append(row)
    wh = [it for it in items if it["wh"]]
    contains = bool(rows)
    shape = [it["id"] for it in wh] == list(by_item)
    for it in wh:
        got = by_item.get(it["id"], [])
        expected_ids = [f"{it['id']}:{n}" for n in range(len(it["answers"]))]
        expected_prov = ["correct_answer"] + ["incorrect_option"] * (len(it["answers"]) - 1)
        if [r["id"] for r in got] != expected_ids or [r["provenance"] for r in got] != expected_prov:
            shape = False
        if any(r["premise"] != it["passage"] for r in got):
            shape = False
        for row, answer in zip(got, it["answers"]):
            contains &= _contains(row["hypothesis"], answer)
    return {
        "label_matches_provenance": all(LABEL_OF.get(r["provenance"]) == r["label"] for r in rows),
        **_declaratives([r["hypothesis"] for r in rows]),
        "declarative_contains_answer": contains,
        "pairs_match_items": shape,
        "skips_are_the_non_wh_items": skipped_ids(stderr_text)
        == {it["id"] for it in items if not it["wh"]},
    }


def check_qa2d(out_text: str, stderr_text: str, items: list[dict], k: int) -> dict[str, bool]:
    rows = [json.loads(line) for line in out_text.splitlines()]
    by_item: dict[str, list[dict]] = {}
    for row in rows:
        by_item.setdefault(row["id"], []).append(row)
    answers = {it["id"]: it["answers"][0] for it in items}
    ranks_ok = all(
        1 <= len(group) <= k and [r["rank"] for r in group] == list(range(1, len(group) + 1))
        for group in by_item.values()
    )
    return {
        **_declaratives([r["declarative"] for r in rows]),
        "declarative_contains_answer": bool(rows)
        and all(_contains(r["declarative"], answers[r["id"]]) for r in rows),
        "ranks_run_1_to_k": ranks_ok,
        "rows_match_items": list(by_item) == [it["id"] for it in items if it["wh"]],
        "skips_are_the_non_wh_items": skipped_ids(stderr_text)
        == {it["id"] for it in items if not it["wh"]},
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


_VOCAB_RE = re.compile(r"^PMI \(k=[^,]+, vocabulary=(\d+)\)$", re.M)


def check_scoring(eval_text: str, analyze_text: str, expected: dict) -> dict[str, bool]:
    report = json.loads(eval_text)
    records = expected["records"]
    vocab = _VOCAB_RE.search(analyze_text)
    by_qtype = {q: row["n"] for q, row in report.get("by_question_type", {}).items()}
    by_length = {b: row["n"] for b, row in report.get("by_qa_length", {}).items()}
    return {
        "eval_n_equals_records": report.get("n") == records,
        "eval_k_equals_3": report.get("k") == 3,
        "eval_exact_match_share": _close(report["exact_match"], 100.0 * expected["exact1"] / records),
        "eval_topk_exact_match_share": _close(
            report["topk_exact_match"], 100.0 * expected["exactk"] / records
        ),
        "eval_breakdown_counts": by_qtype == dict(expected["by_qtype"])
        and by_length == dict(expected["by_length"]),
        "analyze_vocabulary": bool(vocab) and int(vocab.group(1)) == expected["vocabulary"],
        "analyze_reports_every_label": all(
            f"  {label}: mean=" in analyze_text for label in expected["labels"]
        ),
    }
