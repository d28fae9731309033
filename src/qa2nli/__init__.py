"""qa2nli: rule-based conversion of QA datasets into NLI corpora.

The pipeline: parse-annotated wh questions are analyzed (analysis),
rewritten with an answer into declarative sentences (engine), paired with
their passages as labeled premise/hypothesis examples (nli), scored
against references (metrics), and checked for annotation artifacts
(artifacts). The conllu module reads and writes the dependency format
everything else consumes.

Each module's __all__ declares its public names, and the package exports
all of them, but importing the package imports none of its modules. The
first read of a name imports the modules in _MODULES order up to the
first one whose __all__ holds it: qa2nli.VerbLexicon loads errors, conllu
and morphology, and qa2nli.PrepositionTable adds analysis and engine.
Reading qa2nli.__all__, dir(qa2nli) or `from qa2nli import *` loads all
eight. The cli module is not one of them: it loads only when imported
itself, as `python -m qa2nli` does. It imports the rewrite stack, through
nli; metrics and artifacts load only when eval or analyze runs.
"""

import importlib

__version__ = "0.1.0"

# Dependency order: each module imports only modules listed before it.
_MODULES = ("errors", "conllu", "morphology", "analysis", "engine", "nli", "metrics", "artifacts")


def _load(module: str):
    return importlib.import_module(f"{__name__}.{module}")


def __getattr__(name: str):
    if name in _MODULES:
        return _load(name)
    if name == "__all__":
        value = [n for module in map(_load, sorted(_MODULES)) for n in module.__all__]
    else:
        # No __all__ holds a private name, so looking one up loads nothing.
        modules = map(_load, () if name.startswith("_") else _MODULES)
        owner = next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *importlib.import_module(__name__).__all__})
