"""Verb reinflection for undoing do-support.

When an inverted question carries a do/does/did auxiliary, the declarative
form needs the main verb re-inflected (did ... end -> ended). Irregular
forms come from a bundled TSV; everything else uses the regular -ed / -s
rules with their orthographic adjustments.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .conllu import _read_lines
from .errors import DatasetError

__all__ = ["VerbLexicon", "reinflect"]

_VOWELS = "aeiou"
_SIBILANT_ENDINGS = ("s", "z", "x", "sh", "ch")
_NO_FORMS: Mapping[str, str] = MappingProxyType({})  # read-only, so every default may share it


def _regular_past(lemma: str) -> str:
    if lemma.endswith("e"):
        return lemma + "d"
    if len(lemma) >= 2 and lemma.endswith("y") and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ied"
    return lemma + "ed"


def _regular_third_singular(lemma: str) -> str:
    if lemma.endswith(_SIBILANT_ENDINGS) or lemma.endswith("o"):
        return lemma + "es"
    if len(lemma) >= 2 and lemma.endswith("y") and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ies"
    return lemma + "s"


class VerbLexicon(NamedTuple):
    """Irregular verb forms plus regular-inflection fallbacks.

    The data file holds key<TAB>value lines ('#' comments allowed) with
    keys "past:<lemma>" and "3sg:<lemma>". Verbs that double their final
    consonant before -ed are plain data rows here; doubling depends on
    stress and cannot be decided from spelling alone.
    """

    irregular_past: Mapping[str, str] = _NO_FORMS
    irregular_third_singular: Mapping[str, str] = _NO_FORMS

    @classmethod
    def from_file(cls, path: str) -> "VerbLexicon":
        past: dict[str, str] = {}
        third: dict[str, str] = {}
        for line_no, key, value in _key_value_lines(path):
            if key.startswith("past:"):
                past[key[len("past:"):]] = value
            elif key.startswith("3sg:"):
                third[key[len("3sg:"):]] = value
            else:
                raise DatasetError(f"unknown key prefix {key!r}", line_no, path)
        return cls(irregular_past=past, irregular_third_singular=third)

    @classmethod
    def bundled(cls) -> "VerbLexicon":
        return _load_bundled(cls, "irregular_verbs.tsv")

    def past(self, lemma: str) -> str:
        lemma = lemma.lower()
        return self.irregular_past.get(lemma) or _regular_past(lemma)

    def third_singular(self, lemma: str) -> str:
        lemma = lemma.lower()
        return self.irregular_third_singular.get(
            lemma
        ) or _regular_third_singular(lemma)


def _key_value_lines(path: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) per key<TAB>value line of a word-list file;
    blank and '#' lines are skipped."""
    for line_no, line in _read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetError("expected key<TAB>value", line_no, path)
        yield line_no, parts[0], parts[1]


@lru_cache(maxsize=None)
def _load_bundled(cls, name: str):
    """cls built from a word list shipped in the package's data directory,
    loaded once per (cls, name)."""
    with resources.as_file(resources.files("qa2nli") / "data" / name) as path:
        return cls.from_file(str(path))


def reinflect(lemma: str, aux_form: str, lexicon: VerbLexicon | None = None) -> str:
    """Inflect a verb lemma for the tense its do-support auxiliary carried.

    Args:
        lemma: lowercase verb lemma ("end", "run", "go").
        aux_form: the auxiliary surface form, one of "do", "does", "did"
            (any letter case).
        lexicon: irregular forms to consult; the bundled lexicon by default.

    Returns:
        "did" -> simple past, "does" -> third singular present,
        "do" -> the lemma unchanged.

    Raises:
        ValueError: empty lemma or an aux_form outside do/does/did.
    """
    if not lemma or not lemma.strip():
        raise ValueError("lemma must be non-empty")
    lexicon = lexicon or VerbLexicon.bundled()
    aux = aux_form.strip().lower()
    lemma = lemma.strip().lower()
    if aux == "did":
        return lexicon.past(lemma)
    if aux == "does":
        return lexicon.third_singular(lemma)
    if aux == "do":
        return lemma
    raise ValueError(f"aux_form must be one of do/does/did, got {aux_form!r}")
