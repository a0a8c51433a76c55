"""Span tracing from outside the program.

Public functions of ddelyap are replaced, where the calling module looks
them up, by wrappers that record one span each: name, start, end, parent and
an amount of work (block columns for unit steps).  Spans stay in memory until
the traced run ends.  A layer's self time is the sum of its spans' durations
minus the durations of their child spans.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# (module that looks the name up, attribute, span name)
FUNCTIONS = [
    ("ddelyap.experiments", "realize", "drivers.realize"),
    ("ddelyap.experiments", "qr_spectrum", "spectrum.qr_spectrum"),
    ("ddelyap.spectrum", "qr_spectrum", "spectrum.qr_spectrum"),
    ("ddelyap.experiments", "oseledets_frames", "spectrum.oseledets_frames"),
    ("ddelyap.experiments", "compare_fibers", "spectrum.compare_fibers"),
    ("ddelyap.experiments", "step_bound_slopes", "spectrum.step_bound_slopes"),
    ("ddelyap.experiments", "characteristic_roots", "oracles.characteristic_roots"),
    ("ddelyap.experiments", "monodromy_exponents", "oracles.monodromy_exponents"),
    ("ddelyap.experiments", "assemble_unit_operator", "propagation.assemble_unit_operator"),
    ("ddelyap.spectrum", "assemble_unit_operator", "propagation.assemble_unit_operator"),
    ("ddelyap.spectrum", "unit_step_block", "propagation.unit_step_block"),
    ("ddelyap.propagation", "unit_step_block", "propagation.unit_step_block"),
    ("ddelyap.spectrum", "step_bounds", "propagation.step_bounds"),
    ("ddelyap.audits", "step_bounds", "propagation.step_bounds"),
    ("ddelyap.audits", "fundamental_matrix", "propagation.fundamental_matrix"),
    ("ddelyap.audits", "unit_step_c", "propagation.segment_step"),
    ("ddelyap.audits", "unit_step_l", "propagation.segment_step"),
    ("ddelyap.audits", "evolve_l_to_c", "propagation.segment_step"),
    ("ddelyap.propagation", "unit_step_c", "propagation.segment_step"),
    ("ddelyap.propagation", "unit_step_l", "propagation.segment_step"),
    ("ddelyap.spectrum", "subspace_intersection", "fibers.subspace_intersection"),
    ("ddelyap.spectrum", "principal_angles", "fibers.principal_angles"),
    ("ddelyap.audits", "audit_sample", "audits.audit_sample"),
]
# Methods of every Driver subclass that defines them.
DRIVER_METHODS = ("matrices", "switch_times_in", "a_integral")
ROOT = "experiments.run_experiment"
UNIT_STEP = "propagation.unit_step_block"
ASSEMBLY = "propagation.assemble_unit_operator"


def _block_columns(args, kwargs) -> int:
    X = args[3] if len(args) > 3 else kwargs["X"]
    return 1 if np.ndim(X) == 1 else np.shape(X)[1]


class Tracer:
    """Records spans while installed; `install` and `uninstall` swap the wrappers in."""

    def __init__(self):
        self._saved = []
        self._reset()

    def _reset(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self._stack = [-1]

    def wrap(self, name, fn, work=None):
        names, starts, ends, parents, works, stack = (
            self.names, self.starts, self.ends, self.parents, self.work, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            works.append(work(args, kwargs) if work else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, name, work=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, work))

    def install(self):
        """Wrap every traced name the program still has; returns the wrapped run_experiment.

        Drops the spans of the previous installation.
        """
        self._reset()
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, name, _block_columns if name == UNIT_STEP else None)
        drivers = importlib.import_module("ddelyap.drivers")
        classes, todo = [], [drivers.Driver]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for attr in DRIVER_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, f"drivers.{attr}")
        experiments = importlib.import_module("ddelyap.experiments")
        return self.wrap(ROOT, experiments.run_experiment)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The spans recorded since the last install, as arrays."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "table": np.array(table),
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "work": np.array(self.work, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_totals(spans: dict) -> dict:
    """Per span name: calls, self time, work; plus the columns of unit steps inside assemblies."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    names = spans["table"][spans["name"]] if dur.size else np.array([], dtype=str)
    totals = {}
    for n in spans["table"]:
        mask = names == n
        totals[str(n)] = {
            "calls": int(mask.sum()),
            "self_s": float(self_time[mask].sum()),
            "work": int(spans["work"][mask].sum()),
        }
    in_assembly = has_parent & (names == UNIT_STEP)
    in_assembly[in_assembly] = names[parent[in_assembly]] == ASSEMBLY
    totals["assembled_columns"] = int(spans["work"][in_assembly].sum())
    return totals
