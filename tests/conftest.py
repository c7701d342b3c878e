"""Pin BLAS to one thread for the test suite, and provide the
``fail_after`` fixture for abort tests.

Every matrix the sampler factors is at most budget-sized (100×100 in the
acceptance runs), where BLAS threads cost more in start-up and contention
than they gain.  The variables are read when numpy loads, so they are set
here, before any test module imports it; a value already in the
environment wins.
"""

import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def fail_after():
    """``fail_after(problem, n)`` makes ``problem``'s simulator raise once it
    has answered ``n`` more calls, and returns ``problem``.  The handle is
    kept, so its counters, ``active_matrix`` and ``matrix`` stay."""
    def arm(problem, n):
        sim = problem.simulator
        inner, left = sim._fn, [n]

        def body(x):
            if left[0] <= 0:
                raise RuntimeError("simulated hardware failure")
            left[0] -= 1
            return inner(x)

        sim._fn = body
        return problem
    return arm
