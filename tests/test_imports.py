"""Importing the package loads NumPy, not the optional heavy modules."""

import json
import os
import subprocess
import sys

import dopplertrack
from dopplertrack import numerics

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAZY = ("scipy.special", "yaml", "concurrent.futures",
        "concurrent.futures.process")

PROBE = """
import json, sys
import dopplertrack, dopplertrack.cli
loaded = [m for m in %r if m in sys.modules]
xi = dopplertrack.numerics.xi_exact(400.0, 1024, 1 / 12e6)
print(json.dumps({"loaded": loaded, "xi": xi.hex(),
                  "special_after": "scipy.special" in sys.modules}))
""" % (LAZY,)


def test_import_loads_no_lazy_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    assert probe["loaded"] == []
    # the oracle still works, and loads SciPy on its first call
    assert float.fromhex(probe["xi"]) == numerics.xi_exact(400.0, 1024, 1 / 12e6)
    assert probe["special_after"]


def test_all_names_resolve():
    missing = [name for name in dopplertrack.__all__
               if not hasattr(dopplertrack, name)]
    assert missing == []
