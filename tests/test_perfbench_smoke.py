"""The benchmark's self-test: every workload at tiny sizes, outputs checked.

It guards what the benchmark harness relies on in polyakit: the series
methods its span recorder patches by name and the family functions its
independent-route checks call.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_runs_clean():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke ok" in done.stdout + done.stderr
