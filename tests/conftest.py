"""Shared fixtures: the bundled QA corpus and its parses, loaded once per session."""

import json
import os
from pathlib import Path

import pytest

import qa2nli
from qa2nli.conllu import index_by_sent_id, load_conllu
from qa2nli.nli import attach_parses, load_qa_jsonl

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def qa2d_rows() -> list[dict]:
    with open(FIXTURES / "qa2d_fixtures.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(scope="session")
def qa2d_parses() -> dict:
    return index_by_sent_id(load_conllu(FIXTURES / "qa2d_fixtures.conllu"))


@pytest.fixture(scope="session")
def multichoice_examples() -> list:
    examples = load_qa_jsonl(FIXTURES / "multichoice_20.jsonl", schema="multichoice")
    parses = index_by_sent_id(load_conllu(FIXTURES / "multichoice_20.conllu"))
    return attach_parses(examples, parses)


@pytest.fixture(scope="session")
def child_env() -> dict:
    """Environment under which `python -m qa2nli` imports this same package,
    whether or not it is installed."""
    src = str(Path(qa2nli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
