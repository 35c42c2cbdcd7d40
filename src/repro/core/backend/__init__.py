"""Compiled kernel backend: dispatch, selection, and counters.

The simulator's data-plane kernels (hashing, bit filters, route
splitting, arena indexing) are defined once, by their numpy reference
implementations in
:mod:`repro.core.backend.fallback`, and optionally *accelerated* by a
compiled engine that reproduces them bit-for-bit:

* ``numba`` — ``@njit(cache=True)`` mirrors (preferred when numba is
  importable; it is an optional dependency).
* ``cext``  — C mirrors compiled on first use with the platform's C
  compiler and loaded through cffi's ABI mode.
* ``fallback`` — the numpy references themselves.

Selection is controlled by ``REPRO_COMPILED``:

===========  ========================================================
value        meaning
===========  ========================================================
``auto``     (default, also empty) best available: numba, else cext,
             else fallback — never an error.
``1``        require a compiled engine (numba preferred, cext
             accepted); raise :class:`CompiledBackendError` listing
             each engine's unavailability reason if neither loads.
``0``        force the fallback even when compiled engines exist.
``numba``    require specifically the numba engine.
``cext``     require specifically the cext engine.
===========  ========================================================

Because every engine is bit-identical (property-tested in
``tests/core/test_backend_parity.py``), the choice affects wall-clock
only — all simulated timestamps, response times, and figures are
byte-identical across settings.

The module-level kernel functions (``hash_avalanche`` …
``unpack_bits``) are the dispatch points; callers never import an
engine directly.  Activation is lazy (first kernel call) and counted:
:func:`counters` reports ``be_compiled_calls`` / ``be_fallback_calls``
/ per-kernel hits and the one-time JIT/compile warmup seconds, which
``--profile`` runs surface next to the ``dp_*`` data-plane counters.
"""

from __future__ import annotations

import os
import time
import typing

import numpy as np

from repro.core.backend import fallback

Array = typing.Any

KERNELS = fallback.KERNELS

_MODES = ("auto", "0", "1", "numba", "cext")


class CompiledBackendError(RuntimeError):
    """A required compiled engine is unavailable.

    Raised only when ``REPRO_COMPILED`` *demands* compilation (``1``,
    ``numba`` or ``cext``); ``auto`` degrades silently.  Carries the
    requested mode and the per-engine unavailability reasons so error
    output is actionable (e.g. "pip install numba" vs "no C compiler").
    """

    def __init__(self, requested: str, reasons: dict[str, str]) -> None:
        self.requested = requested
        self.reasons = dict(reasons)
        detail = "; ".join(f"{name}: {why}" for name, why in
                           sorted(self.reasons.items()))
        super().__init__(
            f"REPRO_COMPILED={requested} requires a compiled kernel "
            f"engine but none loaded ({detail}). Install numba, or a "
            f"C compiler plus cffi, or unset REPRO_COMPILED to run "
            f"the bit-identical numpy fallback.")


# Active engine state.  ``_impls`` maps kernel name -> counting
# wrapper; module functions read it on every call so tests and the
# A/B benchmarks can re-activate mid-process.
_engine_name: str | None = None
_warmup_seconds: float = 0.0
_unavailable: dict[str, str] = {}
_impls: dict[str, typing.Callable[..., typing.Any]] = {}
_hits: dict[str, int] = {name: 0 for name in KERNELS}
_calls = {"compiled": 0, "fallback": 0}


def _load_engine(name: str) -> typing.Any | None:
    """Try one engine; record the reason on failure."""
    try:
        if name == "numba":
            from repro.core.backend import numba_engine
            return numba_engine.load()
        from repro.core.backend import cext
        return cext.load()
    except Exception as exc:  # EngineUnavailable or import-time error
        _unavailable[name] = str(exc)
        return None


def _warm(engine: typing.Any) -> float:
    """Run every kernel once on tiny inputs, timing the first pass.

    For jitted engines this triggers (or loads the cache of) the
    actual compilation, so steady-state calls — and the interleaved
    A/B benchmark samples — never pay it.  The host-clock read is
    diagnostic only and never flows into simulated time.
    """
    u = np.arange(4, dtype=np.uint64)
    s = np.arange(4, dtype=np.int64)
    t0 = time.perf_counter()  # repro-lint: disable=REPRO001
    engine.hash_avalanche(u, 2654435761)
    engine.hash_legacy(u, 7, 977)
    engine.remix(u)
    engine.filter_slots(u, 64)
    engine.split_groups(s % 2, 2)
    engine.arena_ranges(s % 3)
    engine.marks_word_bytes(s, 64)
    engine.unpack_bits(b"\x0f" * 8, 64)
    return time.perf_counter() - t0  # repro-lint: disable=REPRO001


def _counting(name: str, impl: typing.Callable[..., typing.Any],
              bucket: str) -> typing.Callable[..., typing.Any]:
    def call(*args: typing.Any) -> typing.Any:
        _hits[name] += 1
        _calls[bucket] += 1
        return impl(*args)
    return call


def activate(mode: str | None = None) -> str:
    """Select and bind an engine; returns its name.

    ``mode=None`` reads ``REPRO_COMPILED`` (missing/empty ==
    ``auto``).  Safe to call repeatedly — benchmarks use it to flip
    engines inside one process for interleaved A/B sampling.
    """
    global _engine_name, _warmup_seconds
    if mode is None:
        mode = os.environ.get("REPRO_COMPILED", "").strip() or "auto"
    if mode not in _MODES:
        raise CompiledBackendError(
            mode, {"parse": f"unknown mode {mode!r}; expected one of "
                            f"{', '.join(_MODES)}"})
    _unavailable.clear()
    engine = None
    if mode in ("auto", "1"):
        engine = _load_engine("numba") or _load_engine("cext")
        if engine is None and mode == "1":
            raise CompiledBackendError(mode, _unavailable)
    elif mode in ("numba", "cext"):
        engine = _load_engine(mode)
        if engine is None:
            raise CompiledBackendError(mode, _unavailable)

    _warmup_seconds = _warm(engine) if engine is not None else 0.0
    bucket = "fallback" if engine is None else "compiled"
    source = fallback if engine is None else engine
    for name in KERNELS:
        _impls[name] = _counting(name, getattr(source, name), bucket)
    _engine_name = "fallback" if engine is None else engine.name
    return _engine_name


def engine_name() -> str:
    """Name of the active engine, activating per env if needed."""
    if _engine_name is None:
        activate()
    return typing.cast(str, _engine_name)


def available_engines() -> dict[str, str]:
    """Probe both compiled engines: name -> "ok" or the reason not."""
    out = {}
    for name in ("numba", "cext"):
        out[name] = "ok" if _load_engine(name) is not None \
            else _unavailable[name]
    return out


def counters() -> dict[str, typing.Any]:
    """Backend dispatch counters for ``--profile`` reports.

    Does not trigger activation — before the first kernel call the
    engine reads ``inactive`` (activation stays lazy so building a
    machine never pays an engine load it may not use).
    """
    out: dict[str, typing.Any] = {
        "be_engine": _engine_name or "inactive",
        "be_compiled_calls": _calls["compiled"],
        "be_fallback_calls": _calls["fallback"],
        "be_warmup_seconds": round(_warmup_seconds, 6),
    }
    for name in KERNELS:
        out[f"be_hit_{name}"] = _hits[name]
    return out


def reset_counters() -> None:
    for name in KERNELS:
        _hits[name] = 0
    _calls["compiled"] = 0
    _calls["fallback"] = 0


def _dispatch(name: str) -> typing.Callable[..., typing.Any]:
    def call(*args: typing.Any) -> typing.Any:
        impl = _impls.get(name)
        if impl is None:
            activate()
            impl = _impls[name]
        return impl(*args)
    call.__name__ = name
    call.__qualname__ = name
    call.__doc__ = getattr(fallback, name).__doc__
    return call


hash_avalanche = _dispatch("hash_avalanche")
hash_legacy = _dispatch("hash_legacy")
remix = _dispatch("remix")
filter_slots = _dispatch("filter_slots")
split_groups = _dispatch("split_groups")
arena_ranges = _dispatch("arena_ranges")
marks_word_bytes = _dispatch("marks_word_bytes")
unpack_bits = _dispatch("unpack_bits")
