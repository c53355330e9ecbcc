"""The golden determinism scenarios, canonical serialization, and digests.

``tests/golden/`` pins four full simulations — every result field, byte
for byte — against kernel changes.  This module is the single source of
truth for *what* those scenarios are and *how* a result is serialized
for comparison, shared by the test suite (``tests/
test_golden_determinism.py``), the ``profess golden`` CLI, and the CI
``determinism`` job that regenerates the blobs on multiple Python
versions and cross-checks their digests.

The first three scenarios were captured from the pre-optimization
kernel (commit a771054); ``quad_profess_sampled`` was added later, with
its blob regenerated under both memory backends.  Regenerate the blobs
ONLY when a change is *intended* to alter simulation results, and say so
explicitly in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:
    from repro.sim.engine import SimulationDriver


def _single_pom_driver(
    mem_backend: Optional[str] = None,
) -> "SimulationDriver":
    from repro.common.config import paper_single_core
    from repro.sim.engine import SimulationDriver
    from repro.traces.generator import synthesize_trace

    config = paper_single_core(scale=128)
    traces = [("zeusmp", synthesize_trace("zeusmp", 1500, scale=128, seed=0))]
    return SimulationDriver(
        config, "pom", traces, seed=0, mem_backend=mem_backend
    )


def _quad_profess_driver(
    mem_backend: Optional[str] = None,
    m_samp: Optional[int] = None,
) -> "SimulationDriver":
    from repro.common.config import paper_quad_core
    from repro.sim.engine import SimulationDriver
    from repro.traces.generator import synthesize_trace

    config = paper_quad_core(scale=128, m_samp=m_samp)
    traces = [
        ("zeusmp", synthesize_trace("zeusmp", 1200, scale=128, seed=0)),
        ("leslie3d", synthesize_trace("leslie3d", 800, scale=128, seed=1)),
        ("mcf", synthesize_trace("mcf", 800, scale=128, seed=2)),
        ("libquantum", synthesize_trace("libquantum", 800, scale=128, seed=3)),
    ]
    return SimulationDriver(
        config, "profess", traces, seed=0, mem_backend=mem_backend
    )


def _quad_profess_sampled_driver(
    mem_backend: Optional[str] = None,
) -> "SimulationDriver":
    """``quad_profess`` with RSM sampling every 256 served requests.

    The default scaled sampling period is longer than the golden traces,
    so the other scenarios never reach an RSM sampling boundary.  This
    one samples every program several times, which puts RSM's slowdown
    factors (the result's ``rsm_history``) and the Table 7 decisions
    they drive under the byte-identical contract.
    """
    return _quad_profess_driver(mem_backend, m_samp=256)


def _quad_composed_driver(
    mem_backend: Optional[str] = None,
) -> "SimulationDriver":
    """A composed registry spec: ProFess with the LFU STC replacement.

    Pins the whole composable-policy path — spec parsing, canonical
    naming (``mdm+rsm+stc:lfu`` -> ``profess+stc:lfu``), axis resolution,
    and the non-default STC array — byte for byte.
    """
    from repro.common.config import paper_quad_core
    from repro.sim.engine import SimulationDriver
    from repro.traces.generator import synthesize_trace

    config = paper_quad_core(scale=128)
    traces = [
        ("zeusmp", synthesize_trace("zeusmp", 1000, scale=128, seed=0)),
        ("leslie3d", synthesize_trace("leslie3d", 600, scale=128, seed=1)),
        ("mcf", synthesize_trace("mcf", 600, scale=128, seed=2)),
        ("libquantum", synthesize_trace("libquantum", 600, scale=128, seed=3)),
    ]
    return SimulationDriver(
        config, "mdm+rsm+stc:lfu", traces, seed=0, mem_backend=mem_backend
    )


#: name -> fresh driver for that scenario.  Each builder takes an
#: optional memory-timing backend override ("python"/"compiled"/"auto");
#: the blobs are backend-independent by contract — the CI backend-parity
#: job regenerates them under both backends and diffs byte-for-byte.
GOLDEN_SCENARIOS: Dict[
    str, Callable[[Optional[str]], "SimulationDriver"]
] = {
    "single_pom": _single_pom_driver,
    "quad_profess": _quad_profess_driver,
    "quad_profess_sampled": _quad_profess_sampled_driver,
    "quad_composed": _quad_composed_driver,
}


def golden_text(name: str, mem_backend: Optional[str] = None) -> str:
    """Run scenario ``name`` and serialize exactly as the blobs were.

    Any drift in values OR in ``to_dict()`` structure changes the text
    (and therefore the digest).  ``mem_backend`` selects the memory
    timing kernel; every backend must produce identical text.
    """
    result = GOLDEN_SCENARIOS[name](mem_backend).run()
    return json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n"


def golden_digest(name: str, mem_backend: Optional[str] = None) -> str:
    """SHA-256 of the scenario's canonical serialization."""
    return hashlib.sha256(
        golden_text(name, mem_backend).encode("utf-8")
    ).hexdigest()


def result_digest(result) -> str:
    """Canonical SHA-256 of one :class:`SimulationResult`.

    The byte-identity contract for resilient execution (DESIGN.md §15):
    however a result was obtained — serial, pooled, retried after a
    worker death, replayed through ``--resume``, or read back from the
    integrity-checked cache — its canonical serialization must hash the
    same as a clean serial run's.  The chaos suite asserts exactly this.
    Uses the same serialization as the golden blobs so the two
    determinism contracts cannot drift apart.
    """
    text = json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests(mem_backend: Optional[str] = None) -> Dict[str, str]:
    """Digest of every golden scenario (the cross-version CI payload)."""
    return {
        name: golden_digest(name, mem_backend)
        for name in sorted(GOLDEN_SCENARIOS)
    }


def check_against_blobs(
    golden_dir: Path, mem_backend: Optional[str] = None
) -> Dict[str, str]:
    """Regenerate every scenario and diff against ``golden_dir`` blobs.

    Returns ``{scenario: problem}`` for mismatching or missing blobs
    (empty = all byte-identical).
    """
    problems: Dict[str, str] = {}
    for name in sorted(GOLDEN_SCENARIOS):
        blob = golden_dir / f"{name}.json"
        if not blob.exists():
            problems[name] = f"missing blob {blob}"
            continue
        if golden_text(name, mem_backend) != blob.read_text():
            problems[name] = f"regenerated result differs from {blob}"
    return problems
