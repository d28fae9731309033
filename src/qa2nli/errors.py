"""Exception types shared across the pipeline.

Argument misuse (bad ids, empty reference lists, k < 1, ...) raises plain
ValueError; these classes cover data and processing failures that callers
may want to catch and report per item.

Every bad input file raises a DatasetError: a JSONL dataset, references,
hypotheses or pairs line that is malformed or breaks its schema; a CoNLL-U
line that cannot be parsed (ConlluFormatError) or a sentence that is not a
tree (ConlluStructureError); a word-list line that is not key<TAB>value or
has an unknown key; and a line of any input file that is not valid UTF-8.
DatasetError.__init__ is the one place that turns a message, a line number
and a path into error text: "<path>: line N: <message>", with either part
left out when it is not known ("line N: ..." from parse_conllu, which reads
no file; "<path>: ..." for a problem of the whole file). err.line_no holds N,
or None. DatasetError is also a ValueError, as json.JSONDecodeError is, so
code that catches ValueError from a loader keeps working.
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


class NotWhQuestionError(PipelineError):
    """The sentence contains no wh word (polar or declarative input)."""


class AnalysisError(PipelineError):
    """A wh question was found but could not be analyzed."""


class TransformError(PipelineError):
    """The declarative rewrite could not be produced."""


class DatasetError(PipelineError, ValueError):
    """A line of an input file is malformed or violates its schema, or the
    file as a whole is unusable.

    The message starts with the file path and line when given
    ("data.jsonl: line 3: ..."); line_no is the 1-based line number, or None.
    """

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConlluFormatError(DatasetError):
    """A CoNLL-U line could not be parsed."""


class ConlluStructureError(DatasetError):
    """Token ids/heads of a sentence do not form a valid tree."""
