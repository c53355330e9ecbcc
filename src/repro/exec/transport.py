"""Result transport: workers pickle results over the pool pipe.

Pickling is the executor's only result path (DESIGN.md §17 records the
measurement behind that).  :func:`resolve_transport` exists only because
the benchmark runner (``perfbench/rep.py``) imports it to print its host
line, and the benchmark's files change only together with the benchmark
itself.
"""

from __future__ import annotations


def resolve_transport(transport: str = "auto", jobs: int = 1) -> str:
    """The transport a wave uses: always ``"pickle"``.

    The arguments are accepted and ignored so the benchmark runner's
    call keeps working.
    """
    return "pickle"
