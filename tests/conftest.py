"""Pin BLAS to one thread for the test suite.

Every matrix the sampler factors is at most budget-sized (100×100 in the
acceptance runs), where BLAS threads cost more in start-up and contention
than they gain.  The variables are read when numpy loads, so they are set
here, before any test module imports it; a value already in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
