"""Compare the report bytes of two source trees, number by number.

    python3 tools/diff_reports.py <parent-tree> <change-tree>

Each tree is a checkout with `src/shellgamma`.  In one fresh single-threaded
interpreter per tree, imported from that tree's `src/`, it runs every builtin
scenario of the tree and seeds 0-3 of every workload of this checkout's
`perfbench/workloads.py`, and writes their CSV and summary files.  Then it
splits each pair of files into fields (CSV cells, summary keys and values)
and prints every numeric field that changed, with its absolute and relative
change, and every other difference: a changed word such as a status or a
`passed` flag, a number turning into or out of nan or inf, an added or
dropped key, row, file or study, or a changed exit code.  Then, for each
field name (a CSV column or a summary key) with a numeric change, it prints
how many fields of that name changed and the largest absolute and relative
change, each with its file.

Exits with 0 when the reports differ at most in numeric fields, 1 otherwise.
"""

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2, 3)
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
REPORT_SUFFIXES = (".csv", ".summary.txt")

# Runs inside the fresh interpreter: argv holds the tree's src directory, the
# output directory and a JSON list of [label, config] jobs.
_RUNNER = """
import contextlib, io, json, os, sys
src, out, jobs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
import shellgamma
if os.path.dirname(os.path.abspath(shellgamma.__file__)) != os.path.join(src, "shellgamma"):
    raise SystemExit(f"shellgamma was imported from {shellgamma.__file__}, not {src}")
from shellgamma import cli, studies
jobs = [["builtin." + name, name] for name in sorted(studies.BUILTIN_SCENARIOS)] + jobs
codes = {}
for label, config in jobs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[label] = cli.main(["run", "--config", config,
                                 "--out", os.path.join(out, label + ".csv")])
with open(os.path.join(out, "exit_codes.json"), "w", encoding="utf-8") as fh:
    json.dump(codes, fh, sort_keys=True)
"""


def workload_jobs(config_dir):
    """[label, config path] of seeds 0-3 of every perfbench workload."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for name, doc in workloads.study_configs(workload, seed).items():
                label = f"{workload}.seed{seed}.{name}"
                path = os.path.join(config_dir, label + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                jobs.append([label, path])
    return jobs


def run_tree(tree, jobs, out):
    """Write the reports of every job with the shellgamma of `tree` into `out`."""
    src = os.path.join(os.path.abspath(tree), "src")
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)
    proc = subprocess.run([sys.executable, "-c", _RUNNER, src, out, json.dumps(jobs)],
                          cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"running the studies of {tree} failed:\n{proc.stderr}")


def report_fields(name, text):
    """(label, value) for every field of a report file.

    A CSV gives each cell, labelled by row and header column; a summary
    gives each line's key and value, labelled by the key.
    """
    lines = text.split("\n")
    if name.endswith(".csv"):
        header = lines[0].split(",")
        for r, line in enumerate(lines):
            for c, cell in enumerate(line.split(",")):
                column = header[c] if c < len(header) else f"column {c}"
                yield f"row {r} {column}", cell
    else:
        for line in lines:
            key, sep, value = line.partition(": ")
            yield "key", key
            if sep:
                yield key, value


def field_name(label):
    """The CSV column or summary key of a field label of `report_fields`."""
    return label.split(" ", 2)[2] if label.startswith("row ") else label


def _number(token):
    """The value of a finite number, else None: a field turning into or out of
    nan or inf is a change of kind, not of value."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def diff_fields(old, new):
    """Compare two lists of (label, value) fields.

    Returns (numeric, other).  numeric lists (label, old, new, abs change,
    relative change) for fields that read as finite numbers on both sides; other
    lists (label, old, new) for every other change, including a field
    present on one side only.
    """
    numeric, other = [], []
    for (label_a, a), (label_b, b) in zip(old, new):
        if label_a == label_b and a == b:
            continue
        x, y = _number(a), _number(b)
        if label_a != label_b or x is None or y is None:
            other.append((label_a if label_a == label_b else f"{label_a} / {label_b}", a, b))
            continue
        change = abs(y - x)
        rel = change / abs(x) if x != 0.0 else float("inf")
        numeric.append((label_a, a, b, change, rel))
    for label, value in old[len(new):]:
        other.append((label, value, "<missing>"))
    for label, value in new[len(old):]:
        other.append((label, "<missing>", value))
    return numeric, other


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def compare(dir_a, dir_b):
    """Print the changes between two report directories; True if only numbers changed."""
    codes_a = json.loads(_read(os.path.join(dir_a, "exit_codes.json")))
    codes_b = json.loads(_read(os.path.join(dir_b, "exit_codes.json")))
    only_numeric = True
    numeric_count = 0
    by_name = {}  # field name -> [(abs change, file), (rel change, file)] per changed field
    for label in sorted(set(codes_a) | set(codes_b)):
        if codes_a.get(label) != codes_b.get(label):
            print(f"{label}: exit code {codes_a.get(label)} -> {codes_b.get(label)}")
            only_numeric = False
        for suffix in REPORT_SUFFIXES:
            name = label + suffix
            text_a, text_b = _read(os.path.join(dir_a, name)), _read(os.path.join(dir_b, name))
            if text_a == text_b:
                continue
            if text_a is None or text_b is None:
                print(f"{name}: only in the {'change' if text_a is None else 'parent'} tree")
                only_numeric = False
                continue
            numeric, other = diff_fields(list(report_fields(name, text_a)),
                                         list(report_fields(name, text_b)))
            for field, a, b, change, rel in numeric:
                print(f"{name}: {field}: {a} -> {b}  abs {change:.3g}  rel {rel:.3g}")
                by_name.setdefault(field_name(field), []).append([(change, name), (rel, name)])
            for field, a, b in other:
                print(f"{name}: {field}: {a!r} -> {b!r}  NOT NUMERIC")
            numeric_count += len(numeric)
            only_numeric = only_numeric and not other
    for field, changes in sorted(by_name.items()):
        (change, at_abs), (rel, at_rel) = (max(column) for column in zip(*changes))
        print(f"{field}: {len(changes)} changed, largest abs {change:.3g} in {at_abs}, "
              f"largest rel {rel:.3g} in {at_rel}")
    print(f"{len(codes_b)} studies, {numeric_count} numeric fields changed, "
          f"{'no other change' if only_numeric else 'OTHER CHANGES'}")
    return only_numeric


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="diff-reports-") as work:
        jobs = workload_jobs(work)
        dirs = [os.path.join(work, side) for side in ("parent", "change")]
        for tree, out in zip((args.parent_tree, args.change_tree), dirs):
            run_tree(tree, jobs, out)
        return 0 if compare(*dirs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
