"""Compile-and-cache for the package's C sources.

Both compiled engines — the data-plane kernels
(:mod:`repro.core.backend.cext`) and the event kernel
(:mod:`repro.sim.kernel`) — are built on first use with the platform's
C compiler and cached as shared objects.  This module is the one place
that does it, so the two share a cache directory, an override
(``REPRO_CEXT_CACHE``) and a naming rule: the file name carries a tag
hashing the source, the compiler flags and the interpreter's
extension suffix, so an edit, a flag change or another Python never
picks up a stale build.  A build lands under a temporary name and is
renamed into place, so concurrent ``--jobs`` workers racing to build
the same tag cannot load a half-written file.

A cached build is found with one ``stat``; the compiler runs only on
a miss, and only then are the Python headers looked up.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import os
import shutil
import subprocess
import tempfile
import typing


class BuildUnavailable(RuntimeError):
    """A C source cannot be built or found built on this host."""


def cache_dir() -> str:
    """Where shared objects are cached (``REPRO_CEXT_CACHE`` overrides)."""
    override = os.environ.get("REPRO_CEXT_CACHE", "").strip()
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "core", "backend",
                        "_cext_cache")


def build(source: str, stem: str, flags: typing.Sequence[str],
          python_headers: bool = False) -> str:
    """The cached shared object built from ``source``; builds on a miss.

    ``python_headers`` adds the interpreter's include directory (an
    extension module), looked up only when the compiler has to run.
    Raises :class:`BuildUnavailable` naming the reason: an unreadable
    source, no C compiler, no ``Python.h``, a cache that cannot be
    written, or a failed compile.
    """
    # The interpreter's extension suffix (``EXT_SUFFIX``), read without
    # initialising sysconfig: a cached build's lookup stays one stat.
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        with open(source, "rb") as fh:
            digest = hashlib.sha256(fh.read())
    except OSError as exc:
        raise BuildUnavailable(f"C source unreadable: {exc}") from exc
    digest.update("\0".join(flags).encode())
    digest.update(suffix.encode())
    cache = cache_dir()
    path = os.path.join(
        cache, f"{stem}_{digest.hexdigest()[:16]}"
               f"{suffix if python_headers else '.so'}")
    if os.path.exists(path):
        return path
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise BuildUnavailable("no C compiler (cc/gcc) on PATH")
    command = [compiler, *flags, "-shared", "-fPIC"]
    if python_headers:
        import sysconfig
        include = sysconfig.get_paths()["include"]
        if not os.path.isfile(os.path.join(include, "Python.h")):
            raise BuildUnavailable(f"no Python.h under {include}")
        command.append(f"-I{include}")
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError as exc:
        # An installed package's directory is often read-only.
        raise BuildUnavailable(
            f"cannot build into cache {cache}: {exc}") from exc
    os.close(fd)
    command += [source, "-o", tmp_path]
    try:
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode == 0:
            os.replace(tmp_path, path)
            return path
        os.unlink(tmp_path)
    except OSError as exc:
        raise BuildUnavailable(
            f"cannot build into cache {cache}: {exc}") from exc
    raise BuildUnavailable(
        f"C compile failed ({' '.join(command)}): "
        f"{result.stderr.strip()[:500]}")
