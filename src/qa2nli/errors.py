"""Exception types shared across the pipeline.

Argument misuse (bad ids, empty reference lists, k < 1, ...) raises plain
ValueError; these classes cover data and processing failures that callers
may want to catch and report per item.
"""

from __future__ import annotations

__all__ = [
    "AnalysisError",
    "ConlluFormatError",
    "ConlluStructureError",
    "DatasetError",
    "NotWhQuestionError",
    "PipelineError",
    "TransformError",
]


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConlluFormatError(PipelineError):
    """A CoNLL-U line could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConlluStructureError(PipelineError):
    """Token ids/heads of a sentence do not form a valid tree."""


class NotWhQuestionError(PipelineError):
    """The sentence contains no wh word (polar or declarative input)."""


class AnalysisError(PipelineError):
    """A wh question was found but could not be analyzed."""


class TransformError(PipelineError):
    """The declarative rewrite could not be produced."""


class DatasetError(PipelineError):
    """A JSONL dataset line is malformed or violates its schema, or a line
    of any input file is not valid UTF-8.

    Carries the 1-based line number when the failure is tied to a line.
    The message starts with the file path and line when given
    ("data.jsonl: line 3: ...").
    """

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_no = line_no
