"""The ``kernel`` fixture: pin an event kernel for one test.

Tests that use it run under the compiled kernel, and skip with the
reason where it cannot load; ``test_python_kernel.py`` collects the
same tests again with ``KERNEL = "python"``, so every one of them also
runs under the Python kernel.
"""

import pytest

from repro.sim import kernel as sim_kernel


@pytest.fixture
def kernel(request):
    """Pin the collecting module's ``KERNEL`` (default ``compiled``),
    then let the host choose again."""
    name = getattr(request.module, "KERNEL", "compiled")
    try:
        sim_kernel.activate(name)
    except sim_kernel.KernelUnavailable as exc:
        pytest.skip(f"compiled kernel unavailable: {exc}")
    yield name
    sim_kernel.activate()
