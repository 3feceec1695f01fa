"""Importing the cluster stack must not pull in scipy or numpy.

scipy is used only by the chi-square and binomial helpers in
``overlay/guideline.py`` and ``analysis/robustness.py``, which import it on
first call.  Loading it costs about a second and tens of MB per process, so
the check runs in a fresh interpreter where nothing else has loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cluster_loads_no_scipy_or_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, repro.core.cluster; "
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
