"""Spans around calls into renewalthin, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper
wherever callers look it up: every ``renewalthin`` module namespace that
holds it, the CLI's dispatch table, and the classes whose ``sample`` and
``density`` methods are traced.  ``uninstall`` puts the originals back.
Spans (name, start, end, parent, job) are kept in memory and written out
when the run ends; counters are taken at the same call boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("spectral", "thinning", "mcsim", "fileio", "cli")

# Functions traced, by module; each span is named "<module>.<function>".
FUNCTIONS = {
    "spectral": ("forward_transform", "inverse_transform", "validate_density"),
    "thinning": ("classify", "detected_density", "detected_spectrum",
                 "emitted_spectrum"),
    "mcsim": ("simulate", "waiting_time_histogram", "compare"),
    "fileio": ("write_clicks_csv", "write_density_csv", "write_spectrum_csv",
               "write_json", "read_density_csv"),
    "cli": ("main", "cmd_simulate", "cmd_forward", "cmd_classify"),
}

# Law classes whose sample method gets a span "mcsim.sample.<law>".
SAMPLERS = {"Exponential": "exponential", "Gamma": "gamma", "Uniform": "uniform",
            "Periodic": "periodic", "AntibunchShaped": "antibunch"}

# Spans whose per-job metric is inclusive of their children.
INCLUSIVE = ("cli.cmd_simulate", "cli.cmd_forward", "cli.cmd_classify")

JOB = "job"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a job span
    job: int


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list = []
        self._job = -1

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def job(self, j: int, fn, *args):
        """Run fn(*args) as job j, inside a job span."""
        self._job = j
        idx = self._open(JOB)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, key, value):
        """owner.key = value (owner[key] for a dict), undone by uninstall."""
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = getattr(owner, key)
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def install(self) -> None:
        import renewalthin.cli as cli
        import renewalthin.mcsim as mcsim

        namespaces = [m for name, m in sys.modules.items()
                      if name == "renewalthin" or name.startswith("renewalthin.")]
        for module, names in FUNCTIONS.items():
            mod = sys.modules[f"renewalthin.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapped = self._wrap(f"{module}.{fname}", original, COUNTERS.get(fname))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapped)
                for key, value in list(cli._DISPATCH.items()):
                    if value is original:
                        self._set(cli._DISPATCH, key, wrapped)
        for cls_name, law in SAMPLERS.items():
            cls = getattr(mcsim, cls_name)
            self._set(cls, "sample", self._wrap(f"mcsim.sample.{law}", cls.sample))
        self._set(mcsim.SourceLaw, "density",
                  self._wrap("mcsim.law_density", mcsim.SourceLaw.density))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -------------------------------------------------------
    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.job] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": rows}, fh)

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-job layer metrics and each module's share of job time (%)."""
        selfs = self_times(self.spans)
        jobs = sum(1 for s in self.spans if s.name == JOB)
        job_time = sum(s.end - s.start for s in self.spans if s.name == JOB)
        self_by_name = defaultdict(float)
        inclusive_by_name = defaultdict(float)
        for s, st in zip(self.spans, selfs):
            self_by_name[s.name] += st
            inclusive_by_name[s.name] += s.end - s.start

        m = {}
        for module, names in FUNCTIONS.items():
            for fname in names:
                if fname == "main":
                    continue
                name = f"{module}.{fname}"
                total = inclusive_by_name if name in INCLUSIVE else self_by_name
                m[f"{name}.s"] = total[name] / jobs
        m["cli.self.s"] = self_by_name["cli.main"] / jobs
        for law in SAMPLERS.values():
            m[f"mcsim.sample.{law}.s"] = self_by_name[f"mcsim.sample.{law}"] / jobs
        m["mcsim.sample.s"] = sum(m[f"mcsim.sample.{law}.s"] for law in SAMPLERS.values())
        m["mcsim.law_density.s"] = self_by_name["mcsim.law_density"] / jobs

        c = self.counts
        for key in ("spectral.transform_calls", "spectral.bytes_computed",
                    "thinning.region_violations", "mcsim.emissions",
                    "mcsim.detections", "fileio.bytes_written", "fileio.bytes_read"):
            m[key] = c[key] / jobs
        m["mcsim.overflow_frac"] = (c["mcsim.overflow"] / c["mcsim.intervals"]
                                    if c["mcsim.intervals"] else 0.0)
        write_s = sum(self_by_name[f"fileio.{f}"] for f in FUNCTIONS["fileio"]
                      if f.startswith("write_"))
        read_s = self_by_name["fileio.read_density_csv"]
        m["fileio.write_mib_per_s"] = c["fileio.bytes_written"] / 2**20 / write_s if write_s else 0.0
        m["fileio.read_mib_per_s"] = c["fileio.bytes_read"] / 2**20 / read_s if read_s else 0.0

        shares = defaultdict(float)
        for name, st in self_by_name.items():
            shares[name.split(".")[0] if name != JOB else "harness"] += st
        share = {k: 100.0 * shares[k] / job_time for k in (*MODULES, "harness")}
        share["fileio.write"] = 100.0 * write_s / job_time
        share["fileio.read"] = 100.0 * read_s / job_time
        return m, share


# -- counters taken at call boundaries -------------------------------------
def _transform(counts, args, kwargs, result):
    counts["spectral.transform_calls"] += 1
    # computed from array sizes: input samples read plus output samples written
    counts["spectral.bytes_computed"] += args[0].values.nbytes + result.values.nbytes


def _classify(counts, args, kwargs, result):
    counts["thinning.region_violations"] += len(result.region_violations)


def _simulate(counts, args, kwargs, result):
    counts["mcsim.emissions"] += result.n_emitted
    counts["mcsim.detections"] += result.timestamps.size


def _histogram(counts, args, kwargs, result):
    counts["mcsim.intervals"] += result.n_intervals
    counts["mcsim.overflow"] += result.overflow_count


def _written(counts, args, kwargs, result):
    counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _read(counts, args, kwargs, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


COUNTERS = {
    "forward_transform": _transform,
    "inverse_transform": _transform,
    "classify": _classify,
    "simulate": _simulate,
    "waiting_time_histogram": _histogram,
    "write_clicks_csv": _written,
    "write_density_csv": _written,
    "write_spectrum_csv": _written,
    "write_json": _written,
    "read_density_csv": _read,
}
