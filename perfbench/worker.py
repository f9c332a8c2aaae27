"""One benchmark process: set up a workload, then run its studies.

Started by run.py as a fresh single-threaded interpreter, the way a user
starts `shellgamma run`.  It imports shellgamma from the checkout's `src/`,
writes and validates the workload's configs (the set-up), then, unless
`--setup-only`, runs the studies back to back through `shellgamma.cli.main`
for `--seconds` seconds: it starts another pass of the studies only while
that pass should end within the time (at least one pass).  The last line of its
standard output is one JSON object with the measurements.

Untraced passes also sample the host's speed: every PROBE_INTERVAL_S a
SIGALRM handler times `probe_kernel`, a fixed batch of small numpy
operations driven from Python, the kind of work the studies do.  run.py
scales the pass and set-up times by these samples (see README.md).  Traced
passes do not sample: a handler run inside a span wrapper would corrupt the
span store.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE_INTERVAL_S = 0.025
PROBE_REPEATS = 20
_PROBE_A = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.2, 0.0, 0.9]])
_PROBE_V = np.array([0.3, -0.1, 0.2])


def probe_kernel():
    """Seconds taken by a fixed batch of small numpy operations."""
    t0 = time.perf_counter()
    for i in range(10):
        x = np.array([0.1 * i, 0.2, 0.3])
        M = np.eye(3) + 0.1 * _PROBE_A
        float(np.linalg.det(M)) + float(np.linalg.norm(np.cross(x, _PROBE_V)))
        float(np.linalg.solve(M, _PROBE_V) @ x)
    return time.perf_counter() - t0


def _read_summary(path):
    summary = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(": ")
            summary[key] = value
    return summary


def _read_residuals(csv_path):
    """Expansion residuals of the coarsest and finest h, as {column: (first, last)}."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    cols = {name: i for i, name in enumerate(header)}
    return {name: (float(rows[0][cols[name]]), float(rows[-1][cols[name]]))
            for name in ("residual_stretch", "residual_bend")}


def accuracy_figures(kind, csv_path, summary_path):
    """Relative accuracy figures of one study report (see README.md)."""
    summary = _read_summary(summary_path)
    figures = {}
    if kind == "gamma-limit":
        figures["rel_gap"] = float(summary["raw_rel_gap_at_smallest_h"])
        if "J_rel_gap_at_smallest_h" in summary:
            figures["J_rel_gap"] = float(summary["J_rel_gap_at_smallest_h"])
    elif kind == "expansion-order":
        for name, (coarse, fine) in _read_residuals(csv_path).items():
            figures[f"{name}_ratio"] = fine / coarse
    return figures


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import shellgamma
    from shellgamma import cli, studies

    if os.path.dirname(os.path.abspath(shellgamma.__file__)) != os.path.join(SRC, "shellgamma"):
        raise SystemExit(f"shellgamma was imported from {shellgamma.__file__}, not {SRC}")
    import workloads

    os.makedirs(args.work_dir, exist_ok=True)
    plan = []
    for name, doc in workloads.study_configs(args.workload, args.seed).items():
        cfg_path = os.path.join(args.work_dir, f"{name}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        kind = studies.validate_config(doc).study
        plan.append((name, kind, cfg_path, os.path.join(args.work_dir, f"{name}.csv")))
    setup_s = time.monotonic() - args.spawned_at
    probe_kernel()  # warm-up
    result = {"setup_s": setup_s,
              "setup_probe_s": statistics.fmean(probe_kernel() for _ in range(PROBE_REPEATS)),
              "python": sys.version.split()[0], "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    run_main = cli.main
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_main = tracer.wrap("cli.main", cli.main)

    samples = []
    if tracer is None:
        signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe_kernel()))
    passes = []
    began = time.perf_counter()
    while True:
        samples.clear()
        if tracer is None:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        codes = [run_main(["run", "--config", cfg_path, "--out", csv_path])
                 for _, _, cfg_path, csv_path in plan]
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        studies_out = {}
        for (name, kind, _, csv_path), code in zip(plan, codes):
            summary_path = os.path.splitext(csv_path)[0] + ".summary.txt"
            entry = {"code": code}
            if code == 0:
                entry["digest"] = _digest(csv_path, summary_path)
                entry["figures"] = accuracy_figures(kind, csv_path, summary_path)
            studies_out[name] = entry
        passes.append({"wall_s": wall - sum(samples),
                       "probe_s": statistics.fmean(samples or [probe_kernel()]),
                       "studies": studies_out})
        # start another pass only if it should end within the measuring time
        if time.perf_counter() - began + wall > args.seconds:
            break

    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
