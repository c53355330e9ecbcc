"""Channel backend selection and the compiled core's build (DESIGN.md §14).

Two interchangeable implementations of one channel run the simulator:

* ``python`` — the channel's interpreted enqueue and fused tick
  (:meth:`repro.mem.channel.Channel._tick_python`); always available
  and the reference implementation.
* ``compiled`` — ``ChannelCore`` from ``_channel.c``, a CPython
  extension type that owns the channel's queues and scheduling state
  and is itself the tick's event callback.
* ``auto`` — ``compiled`` when the extension builds and loads, else
  ``python``.

The extension is built on first use with the interpreter's own C
compiler (``sysconfig``'s ``CC``) into this package's ``__pycache__``,
under a name keyed by the source's SHA-256 and the interpreter's
``EXT_SUFFIX``.  Later interpreters pay a hash, a stat and a dlopen.
Each build compiles to a temporary file in the same directory and
renames it into place, so processes that build at once all succeed.

The backend contract: both backends perform identical state transitions
and schedule identical events, so ``profess golden --check`` is
byte-identical across them (CI's backend-parity job), which is also why
the choice is excluded from cache keys.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Optional

from repro.common.config import MEM_BACKENDS
from repro.common.errors import InvalidValueError

_SOURCE = Path(__file__).with_name("_channel.c")
_BUILD_DIR = Path(__file__).with_name("__pycache__")


def extension_path(source: Path, build_dir: Path) -> Path:
    """Where the extension built from ``source`` lives in ``build_dir``."""
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return build_dir / f"_channel-{digest}{suffix}"


def build_extension(source: Path, target: Path) -> None:
    """Compile ``source`` into the shared library ``target``.

    The compiler writes a temporary file beside ``target`` that is then
    renamed over it, so a concurrent build or load never sees a partial
    library.  Raises :class:`OSError` (no compiler, unwritable
    directory) or :class:`subprocess.CalledProcessError`.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    handle, temporary = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    os.close(handle)
    try:
        subprocess.run(
            compiler
            + ["-O2", "-fPIC", "-shared", f"-I{include}", str(source),
               "-o", temporary],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def load_extension(path: Path) -> ModuleType:
    """Load the built extension at ``path`` as ``repro.mem._channel``."""
    spec = importlib.util.spec_from_file_location("repro.mem._channel", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=1)
def _extension() -> tuple[Optional[ModuleType], str]:
    """(the compiled core's module, "") or (None, why it is unavailable)."""
    try:
        target = extension_path(_SOURCE, _BUILD_DIR)
        if not target.exists():
            build_extension(_SOURCE, target)
        return load_extension(target), ""
    except subprocess.CalledProcessError as error:
        lines = (error.stderr or "").strip().splitlines()
        detail = lines[-1] if lines else f"exit status {error.returncode}"
        return None, f"{error.cmd[0]} failed: {detail}"
    except (OSError, ImportError) as error:
        return None, str(error)


def channel_extension() -> Optional[ModuleType]:
    """The compiled core's module, built on first use; None if unavailable."""
    return _extension()[0]


def compiled_available() -> bool:
    """True when the compiled channel core builds and loads."""
    return channel_extension() is not None


def resolve_backend(name: str) -> str:
    """Map a requested backend name to the one that will run.

    ``auto`` picks ``compiled`` when the extension is available and
    ``python`` otherwise.  An explicit ``compiled`` that cannot be built
    is an error (:class:`InvalidValueError`; the CLI exits 2).
    """
    if name not in MEM_BACKENDS:
        raise InvalidValueError(
            f"mem backend must be one of {MEM_BACKENDS}, got {name!r}"
        )
    if name == "python":
        return name
    if compiled_available():
        return "compiled"
    if name == "compiled":
        raise InvalidValueError(
            f"mem backend 'compiled' is unavailable: {_extension()[1]}"
        )
    return "python"
