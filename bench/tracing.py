"""Span tracing installed from outside the package.

Each wrapped function records one span per call (name, start, end, parent
span), kept in memory and aggregated when the run ends.  A function is
wrapped where its caller looks it up: `torus.neighbors` is replaced in
every module that imported it by name, methods on their class, and the
harness row builders in its dispatch table.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

# per-layer metrics: name -> unit.  Spans give <layer>.calls / .self_s /
# .total_s; the rest are counters fed by the wrappers' return hooks.
LAYER_METRICS = {
    "torus.neighbors.calls": "count",
    "torus.neighbors.self_s": "s",
    "torus.neighbor_table.self_s": "s",
    "torus.neighbor_table.total_s": "s",
    "spin.sample_product.self_s": "s",
    "spin.engine_init.self_s": "s",
    "spin.run.self_s": "s",
    "spin.step.calls": "count",
    "spin.step.self_s": "s",
    "spin.events": "count",
    "spin.active.max": "count",
    "observables.observer.calls": "count",
    "observables.observer.self_s": "s",
    "observables.sup_deviation.self_s": "s",
    "observables.value_at.self_s": "s",
    "coupling.run.self_s": "s",
    "coupling.events": "count",
    "coupling.check.calls": "count",
    "coupling.check.self_s": "s",
    "coupling.sizes.self_s": "s",
    "ballgame.E_T.self_s": "s",
    "ballgame.E_T.total_s": "s",
    "ballgame.C_hat.self_s": "s",
    "ballgame.C_hat.total_s": "s",
    "ballgame.C_bar.self_s": "s",
    "ballgame.C_bar.total_s": "s",
    "ballgame.C_tilde.self_s": "s",
    "ballgame.C_tilde.total_s": "s",
    "ballgame.rightward_move.calls": "count",
    "ballgame.rightward_move.self_s": "s",
    "ballgame.approach4.self_s": "s",
    "ballgame.approach4.jumps": "count",
    "oracle.state_tables.calls": "count",
    "oracle.state_tables.self_s": "s",
    "oracle.kernel.calls": "count",
    "oracle.kernel.self_s": "s",
    "oracle.uniformize.self_s": "s",
    "oracle.var_C0.self_s": "s",
    "harness.rows.self_s": "s",
    "harness.write_outputs.self_s": "s",
    "harness.write_outputs.bytes": "B",
    "trace.overhead": "x",
    "trace.spans": "count",
}

# set-up work: counted once over the whole process, including set-up
_WHOLE_PROCESS = {"torus.neighbor_table"}
# not normalised per run: a maximum and the set-up layers
_UNSCALED = {"spin.active.max",
             *(f"{layer}.{kind}" for layer in _WHOLE_PROCESS
               for kind in ("calls", "self_s", "total_s"))}


class Tracer:
    """In-memory span recorder; `paused` lets the benchmark's own checks
    call wrapped functions without recording them."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.paused = False
        self.measure_from = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_of.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return fn recording a span per call; after(result, args) feeds counters."""
        nid = self._intern(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent,
                                              self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def mark_measured_phase(self) -> None:
        self.measure_from = len(self.start)
        self.counters.clear()

    def layer_metrics(self, runs: int) -> dict[str, float]:
        """Every LAYER_METRICS entry except trace.overhead, per workload run."""
        name_of = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        measured = np.arange(dur.size) >= self.measure_from
        layers = len(self.layer_names)
        totals = {}
        for scope, mask in (("measured", measured), ("all", np.ones_like(measured))):
            totals[scope] = (
                np.bincount(name_of[mask], minlength=layers),
                np.bincount(name_of[mask], weights=self_t[mask], minlength=layers),
                np.bincount(name_of[mask], weights=dur[mask], minlength=layers))
        out = {}
        for metric in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            layer, kind = metric.rsplit(".", 1)
            if layer in self._ids and kind in ("calls", "self_s", "total_s"):
                scope = "all" if layer in _WHOLE_PROCESS else "measured"
                calls, self_s, total_s = totals[scope]
                i = self._ids[layer]
                value = {"calls": calls, "self_s": self_s, "total_s": total_s}[kind][i]
            else:
                value = self.counters.get(metric, 0)
            out[metric] = float(value) if metric in _UNSCALED else float(value) / runs
        out["trace.spans"] = float(int(measured.sum())) / runs
        return out

    def dump(self, path: str) -> None:
        """Write every span as a compressed array file for later inspection."""
        np.savez_compressed(
            path, layer_names=np.asarray(self.layer_names),
            name_of=np.asarray(self.name_of, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start), end=np.asarray(self.end),
            measure_from=self.measure_from)


def install(tracer: Tracer, tv) -> None:
    """Wrap the public layer functions of the torusvoter package `tv`."""
    torus, spin, observables = tv.torus, tv.spin, tv.observables
    coupling, ballgame, oracle, harness = tv.coupling, tv.ballgame, tv.oracle, tv.harness

    def patch(owners, attr, name, after=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), after)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch((torus, spin, coupling, ballgame, oracle), "neighbors", "torus.neighbors")
    patch((torus.TorusShape,), "neighbor_table", "torus.neighbor_table")
    patch((spin, coupling, ballgame), "sample_product", "spin.sample_product")
    patch((spin.EventEngine,), "__init__", "spin.engine_init")
    patch((spin.EventEngine,), "step", "spin.step",
          lambda ev, args: tracer.maximum("spin.active.max", len(args[0].active)))
    patch((spin, ballgame), "run", "spin.run",
          lambda traj, args: tracer.count("spin.events", len(traj.events)))
    patch((observables.FractionObserver,), "__call__", "observables.observer")
    patch((observables.EAccumulator,), "__call__", "observables.observer")
    patch((observables,), "sup_deviation", "observables.sup_deviation")
    patch((observables.ObservableSeries,), "value_at", "observables.value_at")
    for attr in ("coupled_run_monotone", "coupled_run_eta_zeta"):
        patch((coupling,), attr, "coupling.run",
              lambda traj, args: tracer.count("coupling.events", len(traj.events)))
    patch((coupling,), "_check_domination", "coupling.check")
    patch((coupling.CoupledTrajectory,), "_sizes", "coupling.sizes")
    for process in ("E_T", "C_hat", "C_bar", "C_tilde"):
        patch((ballgame,), f"_sample_{process}", f"ballgame.{process}")
    patch((ballgame,), "rightward_move", "ballgame.rightward_move")
    patch((ballgame,), "approach4_run", "ballgame.approach4",
          lambda res, args: tracer.count("ballgame.approach4.jumps", len(res.taus)))
    patch((oracle,), "_state_tables", "oracle.state_tables")
    patch((oracle,), "_uniformized_kernel", "oracle.kernel")
    patch((oracle,), "ctmc_mean_ones", "oracle.uniformize")
    patch((oracle,), "exact_var_C0", "oracle.var_C0")
    for mode, rows in list(harness._DISPATCH.items()):
        harness._DISPATCH[mode] = tracer.wrap("harness.rows", rows)
    patch((harness,), "write_outputs", "harness.write_outputs",
          lambda _, args: tracer.count("harness.write_outputs.bytes", sum(
              os.path.getsize(os.path.join(args[0], f))
              for f in ("rows.csv", "summary.json"))))
