"""Per-layer spans recorded from outside the program.

`install` replaces the public functions of each shellgamma module, at the
import sites the studies call them through, with wrappers that record a
span (name, start, end, parent) in memory.  `Tracer.metrics` turns the spans
into the per-layer metrics of the benchmark: call counts, self time (a span's
duration minus the part its child spans cover) and inclusive time (counted
once for nested spans of the same name).
"""

import array
import dataclasses
import functools
import importlib
import time

import numpy as np

# span name -> (import sites as "module:attribute", reported statistics)
LAYERS = {
    "geometry.frame": (["geometry:SurfacePatch.frame"], ("calls", "self_s")),
    "geometry.offset_jacobian": (
        ["geometry:offset_jacobian", "recovery3d:offset_jacobian",
         "loads:offset_jacobian"], ("calls", "self_s")),
    "fields.fd_partial": (
        ["fields:fd_partial", "kinematics:fd_partial", "recovery3d:fd_partial"],
        ("calls", "self_s")),
    "kinematics.A_at": (["kinematics:IsometryField.A_at"], ("calls", "self_s")),
    "kinematics.build_isometry": (["studies:build_isometry"], ("s",)),
    "kinematics.expansion_residual": (
        ["studies:stretching_expansion_residual",
         "studies:bending_expansion_residual"], ("s",)),
    "material.reduce_q2": (
        ["material:reduce_q2", "limit2d:reduce_q2", "recovery3d:reduce_q2",
         "studies:reduce_q2"], ("calls", "self_s")),
    "material.brute_force": (["studies:relax_q2_brute_force"], ("calls", "s")),
    "limit2d.eval_I": (["limit2d:eval_I", "studies:eval_I"], ("s",)),
    "limit2d.eval_J": (["studies:eval_J"], ("s",)),
    "recovery3d.gradient": ([], ("calls", "self_s")),
    "recovery3d.evaluate": ([], ("calls",)),
    "recovery3d.eval_shell_energy": (
        ["recovery3d:eval_shell_energy", "studies:eval_shell_energy"],
        ("calls", "s")),
    "loads.eval_J_h": (["studies:eval_J_h"], ("s",)),
    "loads.maximize_action": (["loads:maximize_action"], ("calls",)),
    "loads.random_rotations": (["studies:random_rotations"], ("s",)),
    "loads.rotation_actions": (["studies:rotation_actions"], ("s",)),
    "studies.run_study": (["cli:run_study"], ("s",)),
    "studies.write_report": (["cli:write_report"], ("s",)),
    "cli.main": ([], ("s",)),
}

UNITS = {"calls": "count", "self_s": "s", "s": "s"}


def metric_names():
    """Names and units of every per-layer metric the tracer reports."""
    return {f"{span}_{stat}": UNITS[stat]
            for span, (_, stats) in LAYERS.items() for stat in stats}


class Tracer:
    """In-memory span store; spans are appended in start order."""

    def __init__(self):
        self.span_names = list(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self._depth = [0] * len(self.span_names)
        self._stack = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.outermost = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")

    def wrap(self, span, fn):
        """Return fn wrapped so that each call records one span named `span`."""
        nid = self._ids[span]
        depth, stack = self._depth, self._stack
        name, parent, outermost = self.name, self.parent, self.outermost
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(depth[nid] == 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1

        return traced

    def metrics(self):
        """Per-layer metrics {name: value} from the recorded spans."""
        nid = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        k = len(self.span_names)
        stats = {
            "calls": np.bincount(nid, minlength=k),
            "self_s": np.bincount(nid, weights=dur - covered, minlength=k),
            "s": np.bincount(nid[outer], weights=dur[outer], minlength=k),
        }
        out = {}
        for i, span in enumerate(self.span_names):
            for stat in LAYERS[span][1]:
                value = stats[stat][i]
                out[f"{span}_{stat}"] = int(value) if stat == "calls" else float(value)
        return out


def install(tracer):
    """Wrap every import site named in LAYERS, and the recovery closures."""
    for span, (sites, _) in LAYERS.items():
        for site in sites:
            module_name, attr = site.split(":")
            owner = importlib.import_module(f"shellgamma.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, tracer.wrap(span, getattr(owner, leaf)))

    studies = importlib.import_module("shellgamma.studies")
    build_recovery = studies.build_recovery

    @functools.wraps(build_recovery)
    def traced_build_recovery(*args, **kwargs):
        rec = build_recovery(*args, **kwargs)
        return dataclasses.replace(
            rec, evaluate=tracer.wrap("recovery3d.evaluate", rec.evaluate),
            gradient=tracer.wrap("recovery3d.gradient", rec.gradient))

    studies.build_recovery = traced_build_recovery
