"""Alternating parent/change runs of the benchmark, summarized pair by pair.

    python3 tools/bench_pairs.py <parent-tree> <change-tree> --workload W \\
        [--workload W2 ...] --seeds a-b --seconds S [--control] > pairs.json

Each tree is a checkout with `perfbench/run.py` and `src/shellgamma`.  Both
trees are byte-compiled first (`python -m compileall -q src perfbench`, with
PYTHONDONTWRITEBYTECODE taken out of the environment), so that neither
tree's `setup_s` pays for missing or stale bytecode.  Then, for each
workload and each seed, each tree runs its own
`perfbench/run.py --workload W --seed s --seconds S --trace 0` from its
root, one run at a time: odd seeds run the parent first, even seeds the
change first.  With `--control`, a copy of the parent tree, at a free path
beside it of the same length (`control_path`), is compiled and run as a
third tree, the A/A control, and the order of parent, change and control
rotates with the seed; the copy is removed at the end.  The `.py` sources
under each tree's `src/` and `perfbench/`
are hashed before they are compiled and again after the last run; if any
file changed, was added or was removed in between, later interpreters
compiled it again and the runs do not compare the trees as compiled, so
the tool names each such tree and file and exits with 1, printing no JSON.

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
swapped, and "unresolved" otherwise.  A median step within ROUNDING_STEP of
the parent's median, relative, is "unresolved" whatever the pairs read: a
deterministic metric whose parent runs have no spread moves that little by
rounding alone.  Then it says whether the median step
to the worse side, relative to the parent's median, is "within bound" or
"beyond bound", and adds "spread wider than bound" when the parent's IQR,
relative to its median, exceeds the bound.

With a control, the summary adds its quartiles per metric and the pairs in
which it reads lower than and equal to the parent, and each change line
is followed by the control's own line, judged against the parent by the
same rule.  The change's "gain shown" then also needs its median step to
exceed the control's absolute step plus the parent's IQR.  A control that
reads "gain shown" or "worse" on any metric of a workload shows that the
runs differ by more than their code: its line adds "control not null", and
every change line of that workload says "unresolved (control not null)".
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np

CODES = ("parent", "change")
CONTROL = "control"
# a median step at most this far from the parent's median, relative, is rounding
ROUNDING_STEP = 1e-9
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """The seeds of "a-b" (both included) or of a single "a"."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if not match or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"seeds must be a-b with 0 <= a <= b, or a; "
                                         f"got {text!r}")
    return range(int(match[1]), int(match[2] or match[1]) + 1)


def run_order(seed, codes=CODES):
    """The codes in the order they run at seed, a rotation of `codes` that moves
    with the seed: without a control, odd seeds run the parent first."""
    k = (seed + 1) % len(codes)
    return codes[k:] + codes[:k]


def control_path(parent):
    """A free path beside the parent tree, of the same length, for its A/A copy.

    The tree's name keeps its length: its last characters give way to "~"
    and a counter.
    """
    head, name = os.path.split(os.path.abspath(parent))
    for i in range(10 ** max(len(name) - 1, 0)):
        tag = f"~{i}"[:len(name)]
        path = os.path.join(head, name[:len(name) - len(tag)] + tag)
        if not os.path.exists(path):
            return path
    raise FileExistsError(f"no free path of the length of {parent} beside it")


def source_digests(tree):
    """{path relative to the tree: SHA-256} of every .py file under its src/ and perfbench/."""
    digests = {}
    for top in ("src", "perfbench"):
        for folder, _, files in os.walk(os.path.join(tree, top)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    digests[os.path.relpath(path, tree)] = digest
    return digests


class SourcesChanged(RuntimeError):
    """A tree's sources after the last run differ from those it compiled before the first."""


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
    """Every run, in the order made; trees maps each code to its checkout, the
    parent and the change, and the control after them if there is one.

    Raises SourcesChanged, naming each tree and file, when a tree's sources
    changed between its compilation and the last run.
    """
    codes = tuple(trees)
    compiled = {}
    for code in codes:
        compiled[code] = source_digests(trees[code])
        byte_compile(trees[code])
    pairs = []
    for workload in workloads:
        for seed in seeds:
            for code in run_order(seed, codes):
                print(f"{workload} seed {seed}: {code}", file=sys.stderr)
                pairs.append({"code": code, "workload": workload, "trace": 0, "seed": seed,
                              "seconds": seconds,
                              "result": run(trees[code], workload, seed, seconds)})
    changed = []
    for code in codes:
        now = source_digests(trees[code])
        changed += [f"{code} tree {trees[code]}: {path}"
                    for path in sorted(compiled[code].keys() | now.keys())
                    if compiled[code].get(path) != now.get(path)]
    if changed:
        raise SourcesChanged("sources changed after they were compiled, so later runs "
                             "compiled them again:\n  " + "\n  ".join(changed))
    return pairs


def _quartiles(values):
    return dict(zip(("p25", "p50", "p75"), (float(p) for p in
                                            np.percentile(values, [25, 50, 75]))))


def _count_keys(code):
    """The summary keys of the pairs in which the side `code` reads lower than and equal
    to the parent; the change's equal count keeps its first name, "equal_in_pairs"."""
    return f"{code}_lower_in_pairs", ("equal_in_pairs" if code == "change"
                                      else f"{code}_equal_in_pairs")


def summarize(pairs):
    """Per workload: quartiles per metric and side, and the pairs the change wins or
    ties; with a control, the pairs it wins or ties against the parent too."""
    summary = {}
    codes = CODES + ((CONTROL,) if any(p["code"] == CONTROL for p in pairs) else ())
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        results = {code: {p["seed"]: p["result"] for p in pairs
                          if p["workload"] == workload and p["code"] == code}
                   for code in codes}
        seeds = sorted(set.intersection(*(set(r) for r in results.values())))
        entry = {"pairs": len(seeds)}
        for metric in results["parent"][seeds[0]]["metrics"]:
            value = {code: [results[code][s]["metrics"][metric]["value"] for s in seeds]
                     for code in codes}
            entry[metric] = {code: _quartiles(value[code]) for code in codes}
            for code in codes[1:]:
                lower, equal = _count_keys(code)
                entry[metric][lower] = sum(c < p for p, c in zip(value["parent"], value[code]))
                entry[metric][equal] = sum(c == p for p, c in zip(value["parent"], value[code]))
        for key in ("failed", "attempted"):
            entry[key] = {code: sum(results[code][s][key] for s in seeds) for code in codes}
        entry["correct"] = {code: all(results[code][s]["correct"] for s in seeds)
                            for code in codes}
        summary[workload] = entry
    return summary


def load_bounds():
    """{metric: (better, bound)} of the end-to-end metrics of this checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def _counts(stats, code):
    """(lower, equal): the pairs in which the side `code` reads lower than and equal to
    the parent."""
    return tuple(stats[key] for key in _count_keys(code))


def _judge(stats, code, n, better):
    """(verdict word, median step, step to the worse side) of one side against the parent."""
    lower, equal = _counts(stats, code)
    higher = n - lower - equal
    iqr = stats["parent"]["p75"] - stats["parent"]["p25"]
    step = stats[code]["p50"] - stats["parent"]["p50"]
    wins, losses, worse_step = ((lower, higher, step) if better == "lower"
                                else (higher, lower, -step))
    if abs(step) <= ROUNDING_STEP * abs(stats["parent"]["p50"]):
        word = "unresolved"
    elif 10 * wins >= 9 * n and -worse_step > iqr:
        word = "gain shown"
    elif 10 * losses >= 9 * n and worse_step > iqr:
        word = "worse"
    else:
        word = "unresolved"
    return word, step, worse_step


def verdicts(summary, bounds):
    """The verdict line of each workload and end-to-end metric of a summary.

    bounds maps each metric to its (better, bound), as `load_bounds` reads them.
    With a control, each change line is followed by the control's line.
    """
    lines = []
    for workload, entry in summary.items():
        n = entry["pairs"]
        metrics = {metric: stats for metric, stats in entry.items()
                   if isinstance(stats, dict) and "change_lower_in_pairs" in stats}
        judged = {(metric, code): _judge(stats, code, n, bounds[metric][0])
                  for metric, stats in metrics.items()
                  for code in ("change", CONTROL) if code in stats}
        not_null = any(word != "unresolved" for (_, code), (word, _, _) in judged.items()
                       if code == CONTROL)
        for (metric, code), (word, step, worse_step) in judged.items():
            stats, bound = metrics[metric], bounds[metric][1]
            parent = stats["parent"]
            iqr = parent["p75"] - parent["p25"]
            if code == CONTROL:
                word += "; control not null" if word != "unresolved" else ""
            elif not_null:
                word = "unresolved (control not null)"
            elif word == "gain shown" and (metric, CONTROL) in judged:
                # the change's step must also clear what the control moved alone
                if -worse_step <= abs(judged[metric, CONTROL][1]) + iqr:
                    word = "unresolved"
            scale = abs(parent["p50"]) or 1.0  # a parent median of 0: absolute steps
            word += "; within bound" if worse_step / scale <= bound else "; beyond bound"
            word += "; spread wider than bound" if iqr / scale > bound else ""
            relative = f" ({step / parent['p50']:+.1%})" if parent["p50"] else ""
            label = workload + " " + metric + ("" if code == "change" else " " + code)
            lower, equal = _counts(stats, code)
            lines.append(f"{label}: median {parent['p50']:.6g} -> {stats[code]['p50']:.6g}"
                         f"{relative}, parent IQR {iqr:.3g}, {code} lower in {lower}/{n}, "
                         f"equal in {equal}: {word}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--control", action="store_true",
                        help="also run a copy of the parent tree, as an A/A control")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {tree}")
    if args.control:
        trees[CONTROL] = control_path(trees["parent"])
        shutil.copytree(trees["parent"], trees[CONTROL],
                        ignore=shutil.ignore_patterns("__pycache__", ".git"))
    try:
        pairs = collect(trees, args.workload, args.seeds, args.seconds)
    except SourcesChanged as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if args.control:
            shutil.rmtree(trees[CONTROL])
    summary = summarize(pairs)
    json.dump({"pairs": pairs, "summary": summary}, sys.stdout, indent=1)
    print()
    for line in verdicts(summary, load_bounds()):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
