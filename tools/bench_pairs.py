"""Alternating parent/change runs of the benchmark, summarized pair by pair.

    python3 tools/bench_pairs.py <parent-tree> <change-tree> --workload W \\
        [--workload W2 ...] --seeds a-b --seconds S > pairs.json

Each tree is a checkout with `perfbench/run.py` and `src/shellgamma`.  Both
trees are byte-compiled first (`python -m compileall -q src perfbench`, with
PYTHONDONTWRITEBYTECODE taken out of the environment), so that neither
tree's `setup_s` pays for missing or stale bytecode.  Then, for each
workload and each seed, each tree runs its own
`perfbench/run.py --workload W --seed s --seconds S --trace 0` from its
root, one run at a time: odd seeds run the parent first, even seeds the
change first.

Standard output gets one JSON object: "pairs", every run in the order made
({"code", "workload", "trace", "seed", "seconds", "result"}, where "result"
is the final JSON line of the run), and "summary", per workload and per
end-to-end metric the p25/p50/p75 of each side and the number of pairs in
which the change reads lower and equal, with the failed and attempted study
runs and whether every run was correct.  Progress goes to standard error,
and so does the verdict: one line per workload and end-to-end metric, with
both medians, the parent's interquartile range, and the pairs the change
reads lower and equal in.  Each metric's `better` direction and `bound`
come from this checkout's BENCHMARK.json.  The line says "gain shown" when
the change reads better in at least 9 of every 10 pairs (ties count for
neither side) and its median lies beyond the parent's, on the better side,
by more than the parent's IQR, "worse" when the same holds with the sides
swapped, and "unresolved" otherwise.  Then it says whether the median step
to the worse side, relative to the parent's median, is "within bound" or
"beyond bound", and adds "spread wider than bound" when the parent's IQR,
relative to its median, exceeds the bound.
"""

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np

CODES = ("parent", "change")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """The seeds of "a-b" (both included) or of a single "a"."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if not match or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"seeds must be a-b with 0 <= a <= b, or a; "
                                         f"got {text!r}")
    return range(int(match[1]), int(match[2] or match[1]) + 1)


def run_order(seed):
    """The codes in the order they run at seed: odd seeds run the parent first."""
    return CODES if seed % 2 else CODES[::-1]


def compile_tree(tree):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


def run_benchmark(tree, workload, seed, seconds):
    """The final JSON line of one untraced benchmark run of the tree."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(trees, workloads, seeds, seconds, run=run_benchmark, byte_compile=compile_tree):
    """Every run, in the order made; trees maps each code to its checkout."""
    for code in CODES:
        byte_compile(trees[code])
    pairs = []
    for workload in workloads:
        for seed in seeds:
            for code in run_order(seed):
                print(f"{workload} seed {seed}: {code}", file=sys.stderr)
                pairs.append({"code": code, "workload": workload, "trace": 0, "seed": seed,
                              "seconds": seconds,
                              "result": run(trees[code], workload, seed, seconds)})
    return pairs


def _quartiles(values):
    return dict(zip(("p25", "p50", "p75"), (float(p) for p in
                                            np.percentile(values, [25, 50, 75]))))


def summarize(pairs):
    """Per workload: quartiles per metric and side, and the pairs the change wins or ties."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        results = {code: {p["seed"]: p["result"] for p in pairs
                          if p["workload"] == workload and p["code"] == code}
                   for code in CODES}
        seeds = sorted(results["parent"].keys() & results["change"].keys())
        entry = {"pairs": len(seeds)}
        for metric in results["parent"][seeds[0]]["metrics"]:
            value = {code: [results[code][s]["metrics"][metric]["value"] for s in seeds]
                     for code in CODES}
            entry[metric] = {code: _quartiles(value[code]) for code in CODES}
            entry[metric]["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(value["parent"], value["change"]))
            entry[metric]["equal_in_pairs"] = sum(
                c == p for p, c in zip(value["parent"], value["change"]))
        for key in ("failed", "attempted"):
            entry[key] = {code: sum(results[code][s][key] for s in seeds) for code in CODES}
        entry["correct"] = {code: all(results[code][s]["correct"] for s in seeds)
                            for code in CODES}
        summary[workload] = entry
    return summary


def load_bounds():
    """{metric: (better, bound)} of the end-to-end metrics of this checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def verdicts(summary, bounds):
    """The verdict line of each workload and end-to-end metric of a summary.

    bounds maps each metric to its (better, bound), as `load_bounds` reads them.
    """
    lines = []
    for workload, entry in summary.items():
        n = entry["pairs"]
        for metric, stats in entry.items():
            if not isinstance(stats, dict) or "change_lower_in_pairs" not in stats:
                continue
            parent, change = stats["parent"], stats["change"]
            lower, equal = stats["change_lower_in_pairs"], stats["equal_in_pairs"]
            higher = n - lower - equal
            iqr = parent["p75"] - parent["p25"]
            step = change["p50"] - parent["p50"]
            better, bound = bounds[metric]
            wins, losses, worse_step = ((lower, higher, step) if better == "lower"
                                        else (higher, lower, -step))
            if 10 * wins >= 9 * n and -worse_step > iqr:
                word = "gain shown"
            elif 10 * losses >= 9 * n and worse_step > iqr:
                word = "worse"
            else:
                word = "unresolved"
            scale = abs(parent["p50"]) or 1.0  # a parent median of 0: absolute steps
            word += "; within bound" if worse_step / scale <= bound else "; beyond bound"
            word += "; spread wider than bound" if iqr / scale > bound else ""
            relative = f" ({step / parent['p50']:+.1%})" if parent["p50"] else ""
            lines.append(f"{workload} {metric}: median {parent['p50']:.6g} -> "
                         f"{change['p50']:.6g}{relative}, parent IQR {iqr:.3g}, change lower "
                         f"in {lower}/{n}, equal in {equal}: {word}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {tree}")
    pairs = collect(trees, args.workload, args.seeds, args.seconds)
    summary = summarize(pairs)
    json.dump({"pairs": pairs, "summary": summary}, sys.stdout, indent=1)
    print()
    for line in verdicts(summary, load_bounds()):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
