"""tools/pass_faults.py on this checkout, for two passes."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pass_faults_prints_one_json_line_of_warm_pass_figures():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "pass_faults.py"), ROOT,
         "--workload", "gamma-sphere", "--passes", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.strip().splitlines()
    record = json.loads(line)
    assert (record["workload"], record["passes"]) == ("gamma-sphere", 2)
    assert record["faults_per_pass"] >= 0.0
    assert record["median_pass_s"] > 0.0
