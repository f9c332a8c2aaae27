"""Benchmark of shellgamma convergence studies, run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With `--trace 0` it times the workload: set-up probes, then one fresh
single-threaded process (worker.py) that runs the workload's studies back to
back through `shellgamma.cli.main` for `--seconds` seconds.  With `--trace 1`
it runs the studies once untraced and once with the per-layer wrappers of
tracing.py, each in a fresh process, and reports the layer metrics.  Every
study must exit with code 0 and write the same CSV and summary bytes as the
first run of the same seed and code; a traced run must write the same bytes
as the untraced one.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("gamma-plate-load", "gamma-sphere", "verify-suite")

# Fresh interpreters timed for setup_s, besides the measuring process itself;
# one more runs first, untimed, so that bytecode caches are warm.
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Probe time (worker.probe_kernel) that defines the reference host speed:
# wall_s and setup_s are the measured times scaled by this over the probe
# time sampled while they were measured.
REFERENCE_PROBE_S = 0.0007

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rel_gap": "1"}


class BenchError(Exception):
    pass


def _spawn(workload, seed, work_dir, *flags):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", work_dir, *flags]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _code_hash():
    """Hash of the program source and of the workload generator."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "workloads.py")]
    for base, dirs, names in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files += [os.path.join(base, n) for n in sorted(names) if n.endswith(".py")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _reference_digests(workload, seed, first_pass):
    """Digests of the first run of this seed and code; recorded if there is none."""
    path = os.path.join(STATE, "ref", _code_hash(), f"{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    digests = {name: st.get("digest") for name, st in first_pass["studies"].items()}
    if all(digests.values()):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(digests, fh)
        os.replace(tmp, path)
    return digests


def _count_failures(passes, expected):
    """(attempted, failed) over study executions: exit code 0 and the expected bytes."""
    attempted = failed = 0
    for p in passes:
        for name, st in p["studies"].items():
            attempted += 1
            if st["code"] != 0 or st.get("digest") != expected.get(name):
                failed += 1
    return attempted, failed


def _machine(worker_result):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": worker_result["python"], "numpy": worker_result["numpy"],
            "blas_threads": THREAD_ENV}


def _at_reference_speed(seconds, probe_s):
    """Scale a measured time to the host speed at which the probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


def _timed(workload, seed, seconds, work_dir):
    _spawn(workload, seed, work_dir, "--setup-only")  # warm-up, not timed
    setups = [_spawn(workload, seed, work_dir, "--setup-only") for _ in range(SETUP_PROBES)]
    run = _spawn(workload, seed, work_dir, "--seconds", str(seconds))
    setups.append(run)
    passes = run["passes"]
    attempted, failed = _count_failures(
        passes, _reference_digests(workload, seed, passes[0]))
    raw_walls = [p["wall_s"] for p in passes]
    raw_setups = [s["setup_s"] for s in setups]
    figures = {f"{name}.{key}": value for name, st in passes[0]["studies"].items()
               for key, value in st.get("figures", {}).items()}
    metrics = {"wall_s": statistics.median(_at_reference_speed(p["wall_s"], p["probe_s"])
                                           for p in passes),
               "setup_s": statistics.median(_at_reference_speed(s["setup_s"], s["setup_probe_s"])
                                            for s in setups),
               "peak_rss_mb": run["peak_rss_mb"],
               "rel_gap": max(figures.values())}
    notes = {"wall_s": f"median of {len(passes)} passes; measured: "
                       + " ".join(f"{w:.3f}" for w in raw_walls),
             "setup_s": f"median of {len(setups)} fresh interpreters; measured median "
                        f"{statistics.median(raw_setups):.4f}, min {min(raw_setups):.4f}, "
                        f"max {max(raw_setups):.4f}",
             "peak_rss_mb": "peak resident memory of the measuring process",
             "rel_gap": "largest of " + ", ".join(
                 f"{k} {v:.6g}" for k, v in sorted(figures.items()))}
    return run, attempted, failed, metrics, notes


def _traced(workload, seed, work_dir):
    plain = _spawn(workload, seed, work_dir)
    traced = _spawn(workload, seed, work_dir, "--trace")
    expected = _reference_digests(workload, seed, plain["passes"][0])
    plain_digests = {n: st.get("digest") for n, st in plain["passes"][0]["studies"].items()}
    counts = [_count_failures(plain["passes"], expected),
              _count_failures(traced["passes"], plain_digests)]
    attempted, failed = (sum(c) for c in zip(*counts))
    wall, traced_wall = plain["passes"][0]["wall_s"], traced["passes"][0]["wall_s"]
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = (traced_wall - wall) / wall
    notes = {"trace_overhead_frac": f"traced {traced_wall:.4f} s vs untraced {wall:.4f} s"}
    return traced, attempted, failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that a terminated run still stops its worker (subprocess.run kills it on exit)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isfile(os.path.join(SRC, "shellgamma", "cli.py")):
        print(f"error: no shellgamma source under {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join(STATE, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            run, attempted, failed, metrics, notes = _traced(args.workload, args.seed, work_dir)
            units = dict(tracing.metric_names(), trace_overhead_frac="1")
        else:
            run, attempted, failed, metrics, notes = _timed(
                args.workload, args.seed, args.seconds, work_dir)
            units = END_TO_END_UNITS
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("machine: " + json.dumps(_machine(run), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} study runs, "
          f"{failed} failed, failed_frac {failed / attempted:.4f}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
