"""Check that seed 0 of the workloads reproduces the builtin scenarios.

    python3 perfbench/check_builtins.py

For every study of `gamma-sphere` and `verify-suite` at seed 0, runs
`shellgamma run --config <builtin name>` and `shellgamma run --config
<generated config>` in fresh processes and compares the CSV and summary
bytes.  Exits with 0 when every pair is identical, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

from run import ROOT, SRC, STATE, THREAD_ENV
from workloads import study_configs


def _shellgamma_run(config, out):
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    proc = subprocess.run([sys.executable, "-m", "shellgamma.cli", "run",
                           "--config", config, "--out", out],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"shellgamma run --config {config} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    with open(out, "rb") as csv, open(out[:-4] + ".summary.txt", "rb") as summary:
        return csv.read() + summary.read()


def main():
    work = os.path.join(STATE, f"check-{os.getpid()}")
    os.makedirs(work)
    differ = 0
    try:
        for workload in ("gamma-sphere", "verify-suite"):
            for name, doc in study_configs(workload, 0).items():
                cfg = os.path.join(work, f"{name}.json")
                with open(cfg, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                builtin = _shellgamma_run(name, os.path.join(work, f"builtin-{name}.csv"))
                generated = _shellgamma_run(cfg, os.path.join(work, f"seed0-{name}.csv"))
                same = builtin == generated
                differ += not same
                print(f"{workload:14s} {name:20s} {'identical' if same else 'DIFFERENT'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
