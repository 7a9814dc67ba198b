"""Experiment orchestration: replica dispatch, aggregation, file outputs.

Every replica i draws from the stream (seed, i), so results are fully
determined by the spec regardless of execution order.  Rows are written
with 17-significant-digit floats so the CSV round-trips float64 exactly and
summaries can be reproduced from the rows alone.
"""

from __future__ import annotations

import json
import math
import os
import resource
from dataclasses import dataclass, field, asdict

import numpy as np

from . import ballgame, coupling, observables, oracle, spin
from .spin import RngStream, THRESHOLD
from .torus import TorusShape

MODES = ("simulate", "couple", "sweep", "ballgame", "oracle", "ldp")


class ValidationError(ValueError):
    """Invalid experiment spec; message lists the offending fields."""


@dataclass
class ExperimentSpec:
    mode: str
    d: tuple[int, ...]
    r: int
    p: tuple[float, ...]
    T: float
    replicas: int
    seed: int
    grid: int = 9
    out: str | None = None
    init_bits: str | None = None

    def validate(self) -> None:
        bad = []
        if self.mode not in MODES:
            bad.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.d or any(di < 1 for di in self.d):
            bad.append(f"d entries must be >= 1, got {self.d}")
        if self.mode == "sweep":
            if len(self.d) < 3:
                bad.append("sweep needs a d-list with >= 3 entries")
            if list(self.d) != sorted(set(self.d)):
                bad.append("sweep d-list must be strictly increasing")
        elif self.mode != "ldp" and len(self.d) != 1:
            bad.append(f"mode {self.mode} takes a single d, got {self.d}")
        if self.r < 2:
            bad.append(f"r must be >= 2, got {self.r}")
        if not self.p or any(not 0.0 <= pi <= 1.0 for pi in self.p):
            bad.append(f"densities must lie in [0, 1], got {self.p}")
        if len(self.p) > 2 or (len(self.p) == 2 and self.mode != "couple"):
            bad.append(f"mode {self.mode} takes a single density, got {self.p}")
        if len(self.p) == 2 and self.p[0] > self.p[1]:
            bad.append(f"couple needs p1 <= p2, got {self.p}")
        if not (math.isfinite(self.T) and self.T > 0):
            bad.append(f"T must be finite and positive, got {self.T}")
        if self.replicas < 1:
            bad.append(f"replicas must be >= 1, got {self.replicas}")
        if self.grid < 2:
            bad.append(f"grid must be >= 2, got {self.grid}")
        if self.init_bits is not None:
            if self.mode not in ("simulate", "oracle"):
                bad.append(f"init_bits is used only by simulate and oracle, "
                           f"not by {self.mode}")
            elif set(self.init_bits) - {"0", "1"}:
                bad.append("init_bits must be a 0/1 string")
            elif len(self.init_bits) != self.r ** self.d[0]:
                bad.append(f"init_bits length {len(self.init_bits)} != r^d")
        if bad:
            raise ValidationError("; ".join(bad))


# Bytes per vertex of one chain: the float64 draw of sample_product, the
# int32 ones_nbr and the uint8 bits; then _IndexedSet with every vertex
# active: its int64 position array, a pos-list slot, an items-list slot
# and the int object it points to.
_ARRAY_BYTES = 8 + 4 + 1
_INDEXED_SET_BYTES = 8 + 8 + 8 + 32


def memory_limit() -> int:
    """Bytes this process may use: physical memory, capped by RLIMIT_AS."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    return limit


def check_capacity(spec: ExperimentSpec) -> None:
    """Raise oracle.CapacityError before a Monte Carlo mode allocates a
    torus whose per-vertex arrays and active set would not fit in memory.

    A coupling holds two chains; the monotone one has two arms per vertex.
    The oracle and ldp modes have their own limits.
    """
    if spec.mode not in ("simulate", "couple", "sweep", "ballgame"):
        return
    n = spec.r ** max(spec.d)
    if spec.mode == "couple":
        arms = 2 if len(spec.p) == 2 else 1
        need = n * (2 * _ARRAY_BYTES + arms * _INDEXED_SET_BYTES)
    else:
        need = n * (_ARRAY_BYTES + _INDEXED_SET_BYTES)
    limit = memory_limit()
    if need > limit:
        raise oracle.CapacityError(
            f"{spec.mode} on {n} vertices needs about {need / 2**20:.0f} MiB; "
            f"memory limit is {limit / 2**20:.0f} MiB")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def time_grid(spec: ExperimentSpec) -> np.ndarray:
    return np.linspace(0.0, spec.T, spec.grid)


def _initial_config(spec: ExperimentSpec, shape: TorusShape, rng):
    if spec.init_bits is not None:
        return spin.config_from_bits(shape, [int(c) for c in spec.init_bits])
    return spin.sample_product(shape, spec.p[0], rng)


def _mean_se_median(values: np.ndarray):
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return math.nan, math.nan, math.nan
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se, float(np.median(values))


def _simulate_rows(spec: ExperimentSpec):
    shape = TorusShape(spec.d[0], spec.r)
    grid = time_grid(spec)
    p = spec.p[0]
    rows = []
    sup_devs = []
    fracs = np.empty((spec.replicas, grid.size))
    for i in range(spec.replicas):
        rng = RngStream(spec.seed, i).generator()
        cfg = _initial_config(spec, shape, rng)
        series = observables.fraction_series(spin.run(cfg, THRESHOLD, spec.T, rng))
        sup = observables.sup_deviation(series, p, spec.T)
        sup_devs.append(sup)
        for j, t in enumerate(grid):
            frac = series.value_at(float(t))
            fl = observables.fluid(p, float(t))
            fracs[i, j] = frac
            rows.append(["simulate", shape.d, shape.r, p, i, float(t), frac, fl,
                         abs(frac - fl), sup])
    header = ["mode", "d", "r", "p", "replica", "t", "frac_ones", "fluid",
              "deviation", "sup_deviation"]
    per_t = []
    for j, t in enumerate(grid):
        mean, se, med = _mean_se_median(fracs[:, j])
        per_t.append({"t": float(t), "mean_frac": mean, "se": se, "median": med,
                      "fluid": observables.fluid(p, float(t))})
    sup_devs = np.asarray(sup_devs)
    summary = {
        "per_t": per_t,
        "sup_deviation": {
            "median": float(np.median(sup_devs)),
            "q90": float(np.quantile(sup_devs, 0.9)),
            "mean": float(sup_devs.mean()),
        },
        "fluid_in_scope": observables.fluid_in_scope(p),
    }
    return header, rows, summary


def _couple_rows(spec: ExperimentSpec):
    shape = TorusShape(spec.d[0], spec.r)
    grid = time_grid(spec)
    monotone = len(spec.p) == 2
    rows = []
    violations = 0
    lower_at = np.empty((spec.replicas, grid.size))
    upper_at = np.empty((spec.replicas, grid.size))
    kept = np.ones(spec.replicas, dtype=bool)  # replicas without a violation
    for i in range(spec.replicas):
        rng = RngStream(spec.seed, i).generator()
        try:
            if monotone:
                traj = coupling.coupled_run_monotone(shape, spec.p[0], spec.p[1],
                                                     spec.T, rng)
            else:
                traj = coupling.coupled_run_eta_zeta(shape, spec.p[0], spec.T, rng)
            dominated = 1
        except coupling.DominationError:
            violations += 1
            kept[i] = False
            continue
        lo = traj.lower_sizes()
        up = traj.upper_sizes()
        for j, t in enumerate(grid):
            lf = lo.value_at(float(t)) / shape.n
            uf = up.value_at(float(t)) / shape.n
            lower_at[i, j] = lf
            upper_at[i, j] = uf
            rows.append(["couple", shape.d, shape.r, spec.p[0], i, float(t), uf,
                         spec.p[-1], lf, dominated])
    header = ["mode", "d", "r", "p", "replica", "t", "upper_frac", "p_high",
              "lower_frac", "dominated"]
    per_t = []
    for j, t in enumerate(grid):
        lm, ls, _ = _mean_se_median(lower_at[kept, j])
        um, us, _ = _mean_se_median(upper_at[kept, j])
        per_t.append({"t": float(t), "mean_lower_frac": lm, "se_lower": ls,
                      "mean_upper_frac": um, "se_upper": us})
    summary = {"coupling": "monotone" if monotone else "eta_zeta",
               "violations": violations, "per_t": per_t}
    return header, rows, summary


def _sweep_rows(spec: ExperimentSpec):
    grid = time_grid(spec)
    p = spec.p[0]
    rows = []
    per_d = []
    for di in spec.d:
        shape = TorusShape(di, spec.r)
        sup_devs = []
        mean_E = []
        for i in range(spec.replicas):
            rng = RngStream(spec.seed, (di, i)).generator()
            cfg = spin.sample_product(shape, p, rng)
            acc = observables.EAccumulator()
            traj = spin.run(cfg, THRESHOLD, spec.T, rng, observers=(acc,))
            series = observables.fraction_series(traj)
            sup = observables.sup_deviation(series, p, spec.T)
            sup_devs.append(sup)
            mean_E.append(acc.size / shape.n)
            rows.append(["sweep", di, spec.r, p, i, spec.T,
                         series.value_at(spec.T),
                         observables.fluid(p, spec.T), sup, mean_E[-1]])
        sup_devs = np.asarray(sup_devs)
        per_d.append({"d": di,
                      "median_sup_deviation": float(np.median(sup_devs)),
                      "q90_sup_deviation": float(np.quantile(sup_devs, 0.9)),
                      "mean_E_frac": float(np.mean(mean_E))})
    header = ["mode", "d", "r", "p", "replica", "t", "frac_ones", "fluid",
              "sup_deviation", "E_frac"]
    medians = [row["median_sup_deviation"] for row in per_d]
    decreasing = sum(b < a for a, b in zip(medians, medians[1:]))
    summary = {"per_d": per_d,
               "monotone_trend": {"decreasing_steps": decreasing,
                                  "total_steps": len(medians) - 1}}
    return header, rows, summary


def _ballgame_rows(spec: ExperimentSpec):
    shape = TorusShape(spec.d[0], spec.r)
    streams = [RngStream(spec.seed, k).generator() for k in range(4)]
    report = ballgame.dominance_experiment(shape, spec.p[0], spec.T,
                                           spec.replicas, None, streams)
    header = ["approach", "M", "survival", "stderr", "replicas"]
    rows = [list(row) for row in report.rows()]
    summary = {
        "M_grid": [float(m) for m in report.M_grid],
        "violations": [{"left": v[0], "right": v[1], "M": v[2], "gap": v[3],
                        "combined_se": v[4]} for v in report.violations],
        "max_count": {k: int(v.max()) for k, v in report.samples.items()},
    }
    return header, rows, summary


def _oracle_rows(spec: ExperimentSpec):
    shape = TorusShape(spec.d[0], spec.r)
    grid = time_grid(spec)
    p = spec.p[0]
    consts = oracle.ldp_constants(p, spec.r) if 0 < p < 1 else None
    rows = []
    ctmc_ok = shape.n <= oracle.CTMC_MAX_VERTICES
    start = p
    if spec.init_bits is not None:
        # a fixed initial state only makes sense for the exact solver
        oracle._check_capacity(shape)
        start = spin.config_from_bits(shape, [int(c) for c in spec.init_bits])
    # one uniformized series serves the whole grid
    series = oracle.UniformizedSeries(shape, start) if ctmc_ok else None
    for t in grid:
        law = oracle.death_law(shape, p, float(t))
        fl = observables.fluid(p, float(t))
        if ctmc_ok:
            mean = oracle.ctmc_mean_ones(shape, start, float(t), series=series)
            frac = mean / shape.n
            dev = abs(frac - fl)
        else:
            frac, dev = float("nan"), float("nan")
        rows.append(["oracle", shape.d, shape.r, p, 0, float(t), frac, fl, dev,
                     law.mean, law.variance])
    header = ["mode", "d", "r", "p", "replica", "t", "frac_ones", "fluid",
              "deviation", "death_mean", "death_var"]
    summary = {
        "expected_C0": oracle.expected_C0(shape, p),
        "var_C0": oracle.exact_var_C0(shape, p),
        "ctmc_available": ctmc_ok,
    }
    if consts is not None:
        summary["ldp"] = {"K": consts.K, "C": consts.C,
                          "admissible": consts.admissible}
    return header, rows, summary


def _ldp_rows(spec: ExperimentSpec):
    p = spec.p[0]
    d_max = max(spec.d)
    ds, rates, drift = oracle.ldp_convergence(p, d_max)
    K = oracle.ldp_constants(p, spec.r).K
    rows = [["ldp", int(d), spec.r, p, 0, 0.0, float(rate), K, float(dr)]
            for d, rate, dr in zip(ds, rates, drift)]
    header = ["mode", "d", "r", "p", "replica", "t", "rate", "K", "drift"]
    summary = {"K": K, "final_drift": float(drift[-1]), "d_max": int(d_max)}
    return header, rows, summary


_DISPATCH = {
    "simulate": _simulate_rows,
    "couple": _couple_rows,
    "sweep": _sweep_rows,
    "ballgame": _ballgame_rows,
    "oracle": _oracle_rows,
    "ldp": _ldp_rows,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment; write rows.csv/summary.json if spec.out is set."""
    spec.validate()
    check_capacity(spec)
    header, rows, summary = _DISPATCH[spec.mode](spec)
    result = {"spec": asdict(spec), "summary": summary}
    if spec.out is not None:
        write_outputs(spec.out, header, rows, result)
    return result


def write_outputs(out_dir: str, header, rows, result) -> None:
    import csv

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


def parse_config_file(path: str) -> dict:
    """Flat key=value config mirroring the CLI flags; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
