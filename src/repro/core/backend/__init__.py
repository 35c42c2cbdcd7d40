"""Compiled kernel backend: dispatch, selection, and counters.

The simulator's data-plane kernels (hashing, bit filters, route
splitting, arena indexing) are defined once, by their numpy reference
implementations in :mod:`repro.core.backend.fallback`, and run by one
of two engines that reproduce them bit-for-bit:

* ``cext``     — C mirrors compiled on first use with the platform's C
  compiler and loaded through cffi's ABI mode
  (:mod:`repro.core.backend.cext`).
* ``fallback`` — the numpy references themselves: the engine on hosts
  without cffi or a C compiler, and the oracle the parity tests hold
  ``cext`` to.

The host chooses: :func:`activate` binds ``cext`` when it loads and
the fallback otherwise.  No environment variable selects the engine;
tests and benchmarks pin one in code (``activate("fallback")``).
Because both engines are bit-identical (property-tested in
``tests/core/test_backend_parity.py``), the choice affects wall-clock
only — all simulated timestamps, response times, and figures are
byte-identical on either.

The module-level kernel functions (``hash_avalanche`` …
``unpack_bits``) are the dispatch points; callers never import an
engine directly.  Activation is lazy (first kernel call) and counted:
:func:`counters` reports ``be_compiled_calls`` / ``be_fallback_calls``
and per-kernel hits, which ``--profile`` runs surface next to the
``dp_*`` data-plane counters.
"""

from __future__ import annotations

import typing

from repro.core.backend import fallback

KERNELS = fallback.KERNELS


# Active engine state.  ``_impls`` maps kernel name -> counting
# wrapper; module functions read it on every call so tests and the
# A/B benchmarks can re-activate mid-process.
_engine_name: str | None = None
_impls: dict[str, typing.Callable[..., typing.Any]] = {}
_hits: dict[str, int] = {name: 0 for name in KERNELS}
_calls = {"compiled": 0, "fallback": 0}


def _counting(name: str, impl: typing.Callable[..., typing.Any],
              bucket: str) -> typing.Callable[..., typing.Any]:
    def call(*args: typing.Any) -> typing.Any:
        _hits[name] += 1
        _calls[bucket] += 1
        return impl(*args)
    return call


def activate(engine: str | None = None) -> str:
    """Bind an engine to the dispatch points; returns its name.

    ``None`` chooses by host — ``"cext"`` when it loads, else
    ``"fallback"`` — and never raises.  ``"cext"`` requires the C
    engine and raises
    :class:`~repro.core.backend.cext.EngineUnavailable`, naming the
    reason, when it cannot load (the bound engine is then unchanged).
    ``"fallback"`` pins the numpy references.  Safe to call
    repeatedly — tests and benchmarks flip engines inside one process.
    """
    global _engine_name
    if engine not in (None, "cext", "fallback"):
        raise ValueError(f"unknown kernel engine {engine!r}; expected "
                         f"'cext', 'fallback', or None to choose by host")
    source: typing.Any = fallback
    if engine != "fallback":
        from repro.core.backend import cext
        try:
            source = cext.load()
        except cext.EngineUnavailable:
            if engine == "cext":
                raise
    bucket = "fallback" if source is fallback else "compiled"
    for name in KERNELS:
        _impls[name] = _counting(name, getattr(source, name), bucket)
    _engine_name = chosen = "fallback" if source is fallback else "cext"
    return chosen


def engine_name() -> str:
    """Name of the active engine, choosing by host if none is bound."""
    if _engine_name is None:
        activate()
    return typing.cast(str, _engine_name)


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
