"""Repository benchmark: one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

The last stdout line is the JSON result (see ``perfbench/README.md``).
"""

import os
import sys

# BLAS runs on one thread; this must happen before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from perflib.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(os.path.dirname(HERE)))
