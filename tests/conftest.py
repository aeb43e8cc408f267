"""Run the suite's numpy on one BLAS thread, as the benchmark and the timing
tools do, unless the environment already sets the thread counts.

pytest loads this file before any test module, so the variables are set
before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
