"""Event-kernel selection, degrade paths and the compiled kernel's
object lifetimes.

The host chooses the kernel (:func:`repro.sim.activate`): the compiled
one wherever it builds and loads, the Python one otherwise.  The
degrade tests drive the real failure branches of the build — no C
compiler, no ``Python.h``, a cache path that is a file — and require
the host's choice to fall back to ``python`` while a pinned
``compiled`` raises with the reason.  The lifetime test looks for the
one failure a C kernel adds, reference counting: run a figure-5 point
over and over and nothing may pile up.
"""

import gc
import shutil
import sysconfig
import tracemalloc
import weakref

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_sweep_point
from repro.sim import Event, Resource, Simulator, Store
from repro.sim import kernel as sim_kernel
from repro.wisconsin.database import WisconsinDatabase

try:
    sim_kernel.load()
    UNAVAILABLE = None
except sim_kernel.KernelUnavailable as exc:
    UNAVAILABLE = str(exc)

needs_compiled = pytest.mark.skipif(
    UNAVAILABLE is not None,
    reason=f"compiled kernel unavailable: {UNAVAILABLE}")


@pytest.fixture(autouse=True)
def _host_choice_afterwards():
    yield
    sim_kernel.activate()


def test_host_choice():
    expected = "python" if UNAVAILABLE else "compiled"
    assert sim_kernel.activate() == expected
    assert sim_kernel.active == expected
    assert Simulator().kernel_counters()["sim_engine"] == expected


def test_python_pinned():
    assert sim_kernel.activate("python") == "python"
    assert Simulator().kernel_counters()["sim_engine"] == "python"
    assert Resource.use is sim_kernel._python[Resource, "use"]


def test_unknown_kernel_raises_value_error():
    for name in ("auto", "0", "1", "c", ""):
        with pytest.raises(ValueError, match="unknown event kernel"):
            sim_kernel.activate(name)


@needs_compiled
def test_one_run_mixes_both_kernels():
    """Steps and bounded runs (Python) and the compiled unbounded run
    share one queue: together they reproduce a pure step() loop."""
    def scenario(drive):
        sim = Simulator()
        cpu = Resource(sim, name="cpu")
        box = Store(sim, name="box")
        trace = []

        def producer(count):
            for index in range(count):
                yield from cpu.use(0.25)
                box.put(index)
                yield sim.timeout(0.125)

        def consumer(count):
            for _ in range(count):
                item = yield box.get()
                yield from cpu.use(0.5)
                trace.append((repr(sim.now), item))

        for index in range(3):
            sim.process(producer(4), name=f"producer-{index}")
            sim.process(consumer(4), name=f"consumer-{index}")
        drive(sim)
        counters = sim.kernel_counters()
        return (trace, repr(sim.now), counters["events_fired"],
                counters["fastpath_holds"], cpu.conformance_snapshot())

    def step_loop(sim):
        while sim.queued_events:
            sim.step()

    def mixed(sim):
        for _ in range(7):
            sim.step()
        sim.run(until=1.5)
        sim_kernel.activate("compiled")
        sim.run()

    sim_kernel.activate("python")
    oracle = scenario(step_loop)
    sim_kernel.activate("python")
    assert scenario(mixed) == oracle


# -- degrade paths ------------------------------------------------------------

def _no_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    return "no C compiler"


def _no_python_headers(monkeypatch, tmp_path):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("the header lookup is reached only with a compiler")
    paths = dict(sysconfig.get_paths(), include=str(tmp_path / "include"))
    monkeypatch.setattr(sysconfig, "get_paths", lambda: paths)
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path / "cache"))
    return "no Python.h"


def _cache_is_a_file(monkeypatch, tmp_path):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("the cache is written only with a compiler")
    blocker = tmp_path / "cache-is-a-file"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(blocker))
    return "cannot build into cache"


@pytest.fixture(params=[_no_compiler, _no_python_headers, _cache_is_a_file],
                ids=["no-compiler", "no-python-headers", "cache-is-a-file"])
def reason(request, monkeypatch, tmp_path):
    yield request.param(monkeypatch, tmp_path)
    monkeypatch.undo()


def test_host_choice_degrades_to_python(reason):
    assert sim_kernel.activate() == "python"
    sim = Simulator()
    resource = Resource(sim)

    def body():
        yield from resource.use(1.5)

    sim.process(body())
    sim.run()
    assert (sim.now, sim.kernel_counters()["sim_engine"]) == (1.5, "python")


def test_pinned_compiled_names_the_reason(reason):
    bound = sim_kernel.activate()
    with pytest.raises(sim_kernel.KernelUnavailable, match=reason):
        sim_kernel.activate("compiled")
    assert sim_kernel.active == bound


# -- lifetimes under the compiled kernel --------------------------------------

def _live_events():
    return sum(isinstance(obj, Event) for obj in gc.get_objects())


@needs_compiled
def test_compiled_kernel_frees_what_it_allocates(monkeypatch):
    """One figure-5 point, five times: every process a point starts is
    freed, the live event count returns to its baseline, and traced
    memory grows by less than 1 MiB from the second run to the fifth."""
    sim_kernel.activate("compiled")
    config = ExperimentConfig(scale=0.02, seed=3, num_disk_nodes=4)
    db = WisconsinDatabase.joinabprime(4, scale=0.02, seed=3)
    processes = []
    start_process = Simulator.process

    def process(sim, generator, name=None):
        started = start_process(sim, generator, name=name)
        processes.append(weakref.ref(started))
        return started

    def point():
        processes.clear()
        run_sweep_point(config, db, "hybrid", 0.5, keep_result=False)
        gc.collect()
        assert processes and all(ref() is None for ref in processes)

    monkeypatch.setattr(Simulator, "process", process)
    point()
    baseline = _live_events()
    tracemalloc.start()
    try:
        grown = []
        for _ in range(4):
            point()
            grown.append(tracemalloc.get_traced_memory()[0])
            assert _live_events() == baseline
    finally:
        tracemalloc.stop()
    assert grown[-1] - grown[0] < 1 << 20, grown
