"""Golden determinism: the fast-path kernel is byte-identical to the seed.

The blobs in ``tests/golden/`` were captured from the pre-optimization
kernel (commit a771054) with the exact scenarios reproduced below: same
configs, same traces, same seeds.  Every result field — cycles, swap
counts, per-program IPC, energy, MDM/RSM stats — must match to the byte
after any kernel change.  A diff here means event ordering, timing
arithmetic, or stats accounting changed, which the performance work must
never do.

Regenerate the blobs ONLY when a change is *intended* to alter
simulation results, and say so explicitly in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.sim.golden import (
    GOLDEN_SCENARIOS,
    check_against_blobs,
    golden_digests,
    golden_text,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_result_matches_golden_blob(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    # golden_text serializes exactly as the capture script did so the
    # comparison is byte-for-byte: any drift in values OR in to_dict()
    # structure fails.
    current_text = golden_text(name)
    if current_text != expected:
        golden = json.loads(expected)
        current = json.loads(current_text)
        diffs = _dict_diff(golden, current)
        pytest.fail(
            f"{name} diverged from golden blob "
            f"({len(diffs)} differing paths):\n"
            + "\n".join(diffs[:20])
        )


def test_check_against_blobs_passes_on_checked_in_goldens():
    assert check_against_blobs(GOLDEN_DIR) == {}


def test_check_against_blobs_reports_missing_and_differing(tmp_path):
    problems = check_against_blobs(tmp_path)
    assert set(problems) == set(GOLDEN_SCENARIOS)
    assert all("missing blob" in problem for problem in problems.values())
    (tmp_path / "single_pom.json").write_text("{}\n")
    problems = check_against_blobs(tmp_path)
    assert "differs" in problems["single_pom"]


def test_sampled_scenario_crosses_rsm_sampling_boundaries(monkeypatch):
    # quad_profess_sampled is the scenario that puts RSM's slowdown
    # factors under the byte contract: it must sample every program, and
    # its samples must reach the serialized result.
    from repro.core.rsm import RSM

    sampled = []
    original = RSM._sample

    def counting(self, program):
        sampled.append(program)
        original(self, program)

    monkeypatch.setattr(RSM, "_sample", counting)
    result = json.loads(golden_text("quad_profess_sampled"))
    assert set(sampled) == {0, 1, 2, 3}
    assert len(result["extra"]["rsm_history"]) == len(sampled)
    unsampled = json.loads((GOLDEN_DIR / "quad_profess.json").read_text())
    assert unsampled["extra"]["rsm_history"] == []


def test_golden_digests_cover_every_scenario_and_are_stable():
    first = golden_digests()
    assert set(first) == set(GOLDEN_SCENARIOS)
    assert all(len(digest) == 64 for digest in first.values())
    # Two in-process regenerations must agree — the weak, same-version
    # form of the CI cross-version determinism gate.
    assert golden_digests() == first


def _dict_diff(expected, actual, path=""):
    """Flat list of 'path: expected != actual' strings for the failure
    message — the raw blobs are thousands of lines."""
    diffs = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected:
                diffs.append(f"{sub}: unexpected key")
            elif key not in actual:
                diffs.append(f"{sub}: missing key")
            else:
                diffs.extend(_dict_diff(expected[key], actual[key], sub))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(
                f"{path}: length {len(expected)} != {len(actual)}"
            )
        else:
            for index, (e, a) in enumerate(zip(expected, actual)):
                diffs.extend(_dict_diff(e, a, f"{path}[{index}]"))
    elif expected != actual:
        diffs.append(f"{path}: {expected!r} != {actual!r}")
    return diffs
