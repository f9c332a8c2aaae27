"""Minor page faults and time per warm pass of one benchmark workload.

    python3 tools/pass_faults.py <tree> --workload W --passes N

The tree is a checkout with `src/shellgamma`.  In one fresh single-threaded
interpreter, imported from that tree's `src/`, it writes the seed-0 configs
of the workload (from this checkout's `perfbench/workloads.py`) and runs
them through `shellgamma.cli.main` back to back: 30 warm-up passes
(`WARMUP`), then N measured passes.  Each measured pass reads the minor
page faults of the process (`ru_minflt`) and `time.perf_counter` around it.
Every study must exit with code 0.  Standard output gets one JSON line:
{"workload", "passes", "faults_per_pass", "median_pass_s"}, the faults
averaged over the measured passes.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
WARMUP = 30  # passes before the measured ones: caches filled, heap settled

# Runs inside the fresh interpreter: argv holds the tree's src directory, the
# perfbench directory, the work directory, the workload, the warm-up and the
# measured pass counts.
_RUNNER = """
import contextlib, io, json, os, resource, statistics, sys, time
src, bench, work, workload = sys.argv[1:5]
warmup, passes = (int(a) for a in sys.argv[5:7])
import shellgamma
if os.path.dirname(os.path.abspath(shellgamma.__file__)) != os.path.join(src, "shellgamma"):
    raise SystemExit(f"shellgamma was imported from {shellgamma.__file__}, not {src}")
from shellgamma import cli
sys.path.insert(0, bench)
import workloads
argvs = []
for name, doc in workloads.study_configs(workload, 0).items():
    path = os.path.join(work, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argvs.append(["run", "--config", path, "--out", os.path.join(work, name + ".csv")])
faults, times = 0, []
for k in range(warmup + passes):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    t1 = time.perf_counter()
    f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if any(codes):
        raise SystemExit(f"a study exited with {codes}")
    if k >= warmup:
        faults += f1 - f0
        times.append(t1 - t0)
print(json.dumps({"workload": workload, "passes": passes, "faults_per_pass": faults / passes,
                  "median_pass_s": statistics.median(times)}))
"""


def measure(tree, workload, passes):
    """The JSON record of `passes` warm passes of `workload` with the shellgamma of `tree`."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)
    with tempfile.TemporaryDirectory(prefix="pass-faults-") as work:
        proc = subprocess.run(
            [sys.executable, "-c", _RUNNER, src, os.path.join(ROOT, "perfbench"), work,
             workload, str(WARMUP), str(passes)],
            cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"running {workload} with {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    print(json.dumps(measure(args.tree, args.workload, args.passes)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
