"""The cache-key contract (DESIGN.md §16), checked by perturbation.

The executor serves a result from the disk cache whenever a spec's
``RunSpec.cache_key()`` matches, and the goldens run uncached, so a
field that changes results without changing the key would serve stale
results that no golden notices.  These tests enumerate every leaf field
of ``RunSpec`` (its ``SystemConfig`` included) and ``PolicySpec``, move
each one to another *valid* value, and check three things:

* every field not on a ``_CACHE_NEUTRAL_FIELDS`` allowlist changes the
  key;
* every allowlist entry names a real field, and perturbing it leaves the
  key unchanged (an entry the key already covers is stale);
* a fresh interpreter with another ``PYTHONHASHSEED``, working
  directory and environment computes the same keys, so nothing impure
  (environment, clock, hash order) feeds them.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

from repro.common.config import (
    MEM_BACKENDS,
    STC_REPLACEMENTS,
    SWAP_STYLES,
    SystemConfig,
)
from repro.common.errors import ReproError
from repro.exec.spec import KINDS, RunSpec
from repro.policies.registry import PolicySpec, registry_names
from repro.traces.spec import PROGRAM_PROFILES

ROOT = Path(__file__).resolve().parent.parent

Path_ = tuple[str, ...]

#: The allowed values of every string-valued leaf, by field name.  A new
#: string field fails the enumeration below until it is listed here.
CHOICES: dict[str, tuple[str, ...]] = {
    "kind": KINDS,
    "programs": tuple(PROGRAM_PROFILES),
    "policy": tuple(registry_names()),
    "base": tuple(
        name for name in registry_names() if PolicySpec.parse(name).base == name
    ),
    "mem_backend": MEM_BACKENDS,
    "swap_style": SWAP_STYLES,
    "stc_replacement": STC_REPLACEMENTS,
}

#: Leaves with no valid value of their own: the geometry check ties the
#: 4-KB page to two 2-KB blocks, so either one moved alone is rejected.
#: They are perturbed without re-running validation.
UNVALIDATED: frozenset[Path_] = frozenset(
    {("config", "hybrid", "block_size"), ("config", "hybrid", "page_size")}
)


def base_spec() -> RunSpec:
    return RunSpec(
        kind="multi",
        programs=("mcf", "lbm", "bwaves", "leslie3d"),
        policy="profess",
        config=SystemConfig(),
        requests=1_000,
        seed=1,
        trace_scale=1,
    )


BASE_POLICY = PolicySpec(base="mdm")


def leaves(obj: object, prefix: Path_ = ()) -> Iterator[Path_]:
    """The path of every non-dataclass field under ``obj``."""
    for field in dataclasses.fields(obj):  # type: ignore[arg-type]
        path = prefix + (field.name,)
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from leaves(value, path)
        else:
            yield path


def get_at(obj: object, path: Path_) -> object:
    for name in path:
        obj = getattr(obj, name)
    return obj


def alternatives(name: str, value: object) -> list[object]:
    """Other values for one leaf: ints and floats double (so power-of-two
    and divisibility checks still hold), strings take another member of
    their allowed set, tuples change their first element."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2 if value else 1]
    if isinstance(value, float):
        return [value * 2 if value else 0.5]
    if isinstance(value, str):
        return [choice for choice in CHOICES[name] if choice != value]
    if isinstance(value, tuple) and value:
        return [(alt,) + value[1:] for alt in alternatives(name, value[0])]
    raise AssertionError(f"no perturbation for {name}={value!r}")


def replace_at(obj: object, path: Path_, value: object, validate: bool) -> object:
    head, rest = path[0], path[1:]
    new = (
        replace_at(getattr(obj, head), rest, value, validate) if rest else value
    )
    if validate or rest:
        return dataclasses.replace(obj, **{head: new})  # type: ignore[type-var]
    clone = copy.copy(obj)
    clone.__dict__.pop("_cache_token", None)
    object.__setattr__(clone, head, new)
    return clone


def perturb(obj: object, path: Path_) -> tuple[object, bool]:
    """``obj`` with the leaf at ``path`` moved; (copy, validated)."""
    options = alternatives(path[-1], get_at(obj, path))
    for option in options:
        try:
            return replace_at(obj, path, option, validate=True), True
        except ReproError:
            continue
    return replace_at(obj, path, options[0], validate=False), False


def neutral(path: Path_) -> bool:
    """Whether an allowlist entry covers ``path`` (a RunSpec leaf)."""
    entries = [(name,) for name in RunSpec._CACHE_NEUTRAL_FIELDS] + [
        ("config", name) for name in SystemConfig._CACHE_NEUTRAL_FIELDS
    ]
    return any(path[: len(entry)] == entry for entry in entries)


def policy_variants() -> dict[str, PolicySpec]:
    return {
        ".".join(path): perturb(BASE_POLICY, path)[0]  # type: ignore[misc]
        for path in leaves(BASE_POLICY)
    }


def all_keys() -> dict[str, str]:
    """Label -> key for the base spec and every one-leaf perturbation."""
    spec = base_spec()
    keys = {"base": spec.cache_key()}
    for path in leaves(spec):
        keys[".".join(path)] = perturb(spec, path)[0].cache_key()  # type: ignore[attr-defined]
    keys["policy-spec:base"] = BASE_POLICY.cache_token()
    for label, variant in policy_variants().items():
        keys[f"policy-spec:{label}"] = variant.cache_token()
        keys[f"policy-spec-run:{label}"] = dataclasses.replace(
            spec, policy=variant.canonical()
        ).cache_key()
    return keys


class TestEnumeration:
    def test_walk_reaches_nested_configs(self):
        paths = set(leaves(base_spec()))
        assert ("config", "hybrid", "num_regions") in paths
        assert ("config", "axes", "swap_style") in paths
        assert ("config", "m2_timings", "t_rcd_ns") in paths
        assert len(paths) > 60

    def test_only_the_page_geometry_needs_unvalidated_values(self):
        spec = base_spec()
        unvalidated = {p for p in leaves(spec) if not perturb(spec, p)[1]}
        assert unvalidated == UNVALIDATED


class TestRunSpecKey:
    def test_every_non_neutral_field_changes_the_key(self):
        spec = base_spec()
        key = spec.cache_key()
        missing = [
            ".".join(path)
            for path in leaves(spec)
            if not neutral(path)
            and perturb(spec, path)[0].cache_key() == key  # type: ignore[attr-defined]
        ]
        assert missing == [], f"fields outside cache_key(): {missing}"

    def test_allowlist_entries_name_real_fields(self):
        for cls in (RunSpec, SystemConfig):
            names = {field.name for field in dataclasses.fields(cls)}
            stale = set(cls._CACHE_NEUTRAL_FIELDS) - names
            assert not stale, f"{cls.__name__}: no such field {stale}"

    def test_allowlisted_fields_leave_the_key_unchanged(self):
        spec = base_spec()
        key = spec.cache_key()
        covered = [
            ".".join(path)
            for path in leaves(spec)
            if neutral(path)
            and perturb(spec, path)[0].cache_key() != key  # type: ignore[attr-defined]
        ]
        assert covered == [], f"allowlisted but keyed (stale entry): {covered}"
        assert any(neutral(path) for path in leaves(spec))


class TestPolicySpecKey:
    def test_every_axis_changes_token_and_run_key(self):
        spec = base_spec()
        token = BASE_POLICY.cache_token()
        run_key = dataclasses.replace(
            spec, policy=BASE_POLICY.canonical()
        ).cache_key()
        for label, variant in policy_variants().items():
            assert variant.cache_token() != token, label
            keyed = dataclasses.replace(spec, policy=variant.canonical())
            assert keyed.cache_key() != run_key, label


class TestPurity:
    def test_fresh_interpreter_computes_the_same_keys(self, tmp_path):
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            "PYTHONHASHSEED": seed,
            "HOME": str(tmp_path),
            "TZ": "UTC",
        }
        code = (
            "import json; from tests.test_cache_keys import all_keys; "
            "print(json.dumps(all_keys()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert json.loads(out) == all_keys()
