"""The kernel tests again, under the Python kernel.

``test_process.py``, ``test_resources.py`` and the run-loop property of
``test_engine.py`` run under the compiled kernel (the ``kernel``
fixture).  This module collects the same tests with the Python kernel
pinned, so both kernels are held to every one of them.
"""

import pytest

from tests.sim.test_engine import (  # noqa: F401 - collected here
    test_every_run_loop_yields_the_step_loop_trace,
)
from tests.sim.test_process import (  # noqa: F401 - collected here
    TestCrashPropagation,
    TestProcessBasics,
    TestProcessInteraction,
    test_run_until_stops_clock,
)
from tests.sim.test_resources import (  # noqa: F401 - collected here
    TestResourceMutualExclusion,
    TestResourceStatistics,
    TestStore,
    test_resource_never_over_capacity,
    test_use_matches_classic_clock,
)

#: Read by the ``kernel`` fixture (tests/sim/conftest.py).
KERNEL = "python"

pytestmark = pytest.mark.usefixtures("kernel")
