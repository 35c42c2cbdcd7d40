"""Which event kernel runs the simulator's hot paths.

Two kernels implement the unbounded run loop (``Simulator._drain``),
``Resource.use``, ``Store.get``/``put`` and ``Process._resume``:

* ``compiled`` — ``_kernel.c``, a CPython extension built on first use
  with the platform's C compiler (:mod:`repro.cbuild`: cached by
  source, flag and interpreter hash under ``REPRO_CEXT_CACHE``'s
  directory) and loaded with ``ExtensionFileLoader``.  It reads and writes the classes' own ``__slots__``, so everything
  that stays Python — ``step()``, ``run(until=…)``, ``Event._fire``,
  ``Timeout``, ``AllOf``/``AnyOf``, ``request``/``release`` — works on
  the same state, and one run may mix both kernels.
* ``python`` — the methods as written in this package: the kernel on a
  host without a C compiler or Python headers, and the oracle the
  tests hold the compiled one to.

The host chooses: :func:`activate` binds ``compiled`` when it loads and
``python`` otherwise.  No environment variable or option selects the
kernel; tests pin one in code.  Both produce bit-identical simulated
times (DESIGN.md §7), so the choice moves wall-clock only.  Activation
is lazy — the first :class:`Simulator` performs it — so ``import repro``
never compiles.
"""

from __future__ import annotations

import collections
import importlib.machinery
import importlib.util
import os
import sys
import typing

#: Compiler flags.  No floating-point contraction and never
#: ``-ffast-math``: ``now + d`` and ``busy_time += d`` must round as
#: Python's float addition does.
FLAGS = ("-O2", "-ffp-contract=off")

#: The methods the compiled kernel replaces, by class name.
COMPILED_METHODS = {"Simulator": ("_drain",), "Resource": ("use",),
                    "Store": ("get", "put"), "Process": ("_resume",)}

_MODULE = "repro.sim._kernel"

#: The bound kernel's name, or None before the first activation.
active: str | None = None
#: The Python methods, captured before anything is replaced.
_python: dict[tuple[type, str], typing.Any] = {}
#: Compiled methods by shared-object path (a path loads once).
_compiled: dict[str, dict[str, typing.Any]] = {}


class KernelUnavailable(RuntimeError):
    """The compiled event kernel cannot be built or loaded here."""


def _classes() -> dict[str, type]:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process
    from repro.sim.resources import Resource, Store
    return {"Simulator": Simulator, "Resource": Resource, "Store": Store,
            "Process": Process}


def load() -> dict[str, typing.Any]:
    """Build (or find built) and load the extension; its methods by
    name, as descriptors of the classes they replace.

    Raises :class:`KernelUnavailable` naming the reason: no C compiler,
    no ``Python.h``, a cache that cannot be written, a failed compile
    or a module that does not load.
    """
    from repro import cbuild
    source = os.path.join(os.path.dirname(__file__), "_kernel.c")
    try:
        path = cbuild.build(source, "repro_event_kernel", FLAGS,
                            python_headers=True)
    except cbuild.BuildUnavailable as exc:
        raise KernelUnavailable(str(exc)) from exc
    methods = _compiled.get(path)
    if methods is not None:
        return methods
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
    spec = importlib.util.spec_from_file_location(_MODULE, path,
                                                  loader=loader)
    try:
        assert spec is not None
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except ImportError as exc:
        raise KernelUnavailable(f"cannot load {path}: {exc}") from exc
    sys.modules[_MODULE] = module
    from repro.sim import _kernel
    from repro.sim.events import Event
    classes = _classes()
    _capture_python(classes)
    try:
        methods = _kernel.install(
            classes["Simulator"], Event, classes["Process"],
            classes["Resource"], classes["Store"], collections.deque,
            _python[classes["Resource"], "use"])
    except (TypeError, AttributeError) as exc:  # a slot layout it rejects
        raise KernelUnavailable(f"cannot install {path}: {exc}") from exc
    _compiled[path] = methods
    return methods


def _capture_python(classes: dict[str, type]) -> None:
    if not _python:
        for name, attributes in COMPILED_METHODS.items():
            cls = classes[name]
            for attribute in attributes:
                _python[cls, attribute] = cls.__dict__[attribute]


def activate(kernel: str | None = None) -> str:
    """Bind a kernel to the simulator's classes; returns its name.

    ``None`` chooses by host — ``"compiled"`` when it loads, else
    ``"python"`` — and never raises.  ``"compiled"`` requires the C
    kernel and raises :class:`KernelUnavailable`, naming the reason,
    when it cannot load (the bound kernel is then unchanged).
    ``"python"`` pins the Python kernel.  Safe to call repeatedly.
    """
    global active
    if kernel not in (None, "compiled", "python"):
        raise ValueError(f"unknown event kernel {kernel!r}; expected "
                         f"'compiled', 'python', or None to choose by "
                         f"host")
    classes = _classes()
    _capture_python(classes)
    methods = None
    if kernel != "python":
        try:
            methods = load()
        except KernelUnavailable:
            if kernel == "compiled":
                raise
    for (cls, attribute), function in _python.items():
        setattr(cls, attribute,
                function if methods is None else methods[attribute])
    name = "python" if methods is None else "compiled"
    active = name
    return name
