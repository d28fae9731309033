"""qa2nli: rule-based conversion of QA datasets into NLI corpora.

The pipeline: parse-annotated wh questions are analyzed (analysis),
rewritten with an answer into declarative sentences (engine), paired with
their passages as labeled premise/hypothesis examples (nli), scored
against references (metrics), and checked for annotation artifacts
(artifacts). The conllu module reads and writes the dependency format
everything else consumes.

Each module's __all__ declares its public names, and the package exports
all of them. The cli module is left out, so importing the package does not
import argparse and csv.
"""

from . import analysis, artifacts, conllu, engine, errors, metrics, morphology, nli
from .analysis import *  # noqa: F403
from .artifacts import *  # noqa: F403
from .conllu import *  # noqa: F403
from .engine import *  # noqa: F403
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .morphology import *  # noqa: F403
from .nli import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *artifacts.__all__,
    *conllu.__all__,
    *engine.__all__,
    *errors.__all__,
    *metrics.__all__,
    *morphology.__all__,
    *nli.__all__,
]
