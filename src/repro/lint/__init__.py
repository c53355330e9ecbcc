"""Project-specific static analysis (``profess lint``).

An AST-based pass over the ``repro`` tree for the guarantees neither
the goldens nor tier-1 check: hot-path slimness (H-rules, driven by the
:mod:`repro.lint.hotpath` manifest) and API contracts (C-rules).  See
DESIGN.md §11; the cache-key contract is ``tests/test_cache_keys.py``
(DESIGN.md §16).
"""

from repro.lint.engine import Finding, LintError, lint_paths, lint_sources
from repro.lint.hotpath import HOT_CLASSES, HOT_FUNCTIONS
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintError",
    "HOT_CLASSES",
    "HOT_FUNCTIONS",
    "RULES",
    "lint_paths",
    "lint_sources",
]
