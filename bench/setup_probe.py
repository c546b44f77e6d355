"""Set-up probe: import lfmo and build one workload's inputs, then exit.

    python3 bench/setup_probe.py WORKLOAD SEED

``bench/run.py`` times whole runs of this script as ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports lfmo, numpy, scipy and mpmath)

workloads.build(sys.argv[1], int(sys.argv[2]))
