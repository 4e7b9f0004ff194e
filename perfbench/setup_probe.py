"""Set-up as a user pays it: import dopplertrack and expand the workload config.

Run from the checkout root as ``python3 perfbench/setup_probe.py WORKLOAD SEED``;
``run.py`` times whole fresh-interpreter runs of this script for ``setup_s``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dopplertrack  # noqa: E402,F401
from dopplertrack import harness  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    harness.scenarios_from_config(workloads.make_config(sys.argv[1], int(sys.argv[2])))
