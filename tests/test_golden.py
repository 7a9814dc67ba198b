"""Golden outputs: rows.csv bytes of each mode at pinned seeds.

The engine is an exact sampler whose speed-ups keep the RNG draw sequence,
so these hashes must not move under an optimisation.  A change that alters
the law or the draw order regenerates them and says why.  The `oracle`
bytes must also be the same at every BLAS thread count.  They may move
with the order in which the exact solve sums its floats, provided the
solve still agrees with the uniformized chain over all 2^n states
(tests/test_oracle.py::TestFullChainAgreement, to 1e-12 absolute).

The two `oracle` hashes were last regenerated when the solve dropped its
sum of Poisson weights built upward from e^{-nt} and took every time from
the window anchored at the Poisson mode (Fox & Glynn), which used to
serve only n*t past about 708.  The two sums truncate and add their
weights in different orders, so frac_ones moved by at most 1e-12; the
full-chain agreement and the BLAS thread check passed before the re-pin.

The `ballgame` hash was last regenerated when spin.DrawStream stopped
handing its unused words back to the Generator: the E_T sampler runs its
replicas one after another on one Generator, so each run now starts past
the last block of the run before.  The law held:
tests/test_draws.py::test_consecutive_runs_match_slot_loop compares such
runs with the slot loop's direct draws.

Before that, the `simulate`, `sweep` and `ballgame` hashes were
regenerated when the engine's active-set walk went from the iteration
order of a set of the touched vertices to a fixed order: x, then the
neighbors whose rate toggled, in kernel order.  The walk order fixes the order of the active
set's items and so the draws, but not the law, since the ringing vertex
is uniform over the set.  The law tests at the end of this file back
that re-pin: a two-sample chi-square of the engine against the set-order
walk (_slot_engine(..., order="set")) on the final |A_T| and |E_T|, and
the engine's mean |A_t| against the exact orbit chain on the r = 2 torus
with d = 4.  The `couple` hashes did not move: the couplings skip only
rechecks that change nothing.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from torusvoter.harness import ExperimentSpec, run_experiment
from torusvoter.observables import EAccumulator, fraction_series
from torusvoter.oracle import UniformizedSeries
from torusvoter.spin import (DEATH, THRESHOLD, EventEngine, RngStream, _IndexedSet,
                             run, sample_product, threshold_rate)
from torusvoter.torus import TorusShape, neighbors

from bruteforce import _exp_variate
from reference import death_rate

GOLDEN = {
    "simulate_r2_d8": (
        dict(mode="simulate", d=(8,), r=2, p=(0.4,), T=2.0, replicas=5, seed=11),
        "fb925ee2ae4da21c29597842fc023a6985a927258fb5d81cadbd8d7e80200fea"),
    "simulate_r3_d4": (
        dict(mode="simulate", d=(4,), r=3, p=(0.4,), T=2.0, replicas=5, seed=12),
        "907521f5b69e8a1f65275163d02d40d668c6352ead84f4c1c96bfb8bc50984cf"),
    "couple_monotone_d6": (
        dict(mode="couple", d=(6,), r=2, p=(0.3, 0.45), T=1.0, replicas=10, seed=13),
        "e8bfd7366776c3cc2cd2c4cbc88dc1a71485ba7c2e1a19271ef6c4c63338f6a4"),
    "couple_eta_zeta_d6": (
        dict(mode="couple", d=(6,), r=2, p=(0.4,), T=1.0, replicas=10, seed=14),
        "bad5ed1dff0b00b1c6d82b8c4881c275562926dfee12d2ea1cf5577b3c470a8f"),
    "couple_monotone_r3_d3": (
        dict(mode="couple", d=(3,), r=3, p=(0.3, 0.45), T=1.0, replicas=10, seed=15),
        "d6f8de7f798858a4fb3178dbfd927861bc1b2739ea153932230dcff293a11ea1"),
    "sweep_d4_6": (
        dict(mode="sweep", d=(4, 5, 6), r=2, p=(0.2,), T=2.0, replicas=5, seed=16),
        "781222e17711d6636d12fc42c11a86d0577eef2488ee28a85b75744e9229663d"),
    "ldp_d60": (
        dict(mode="ldp", d=(60,), r=2, p=(0.3,), T=1.0, replicas=1, seed=18),
        "f8caf6f9ef5f5c8a3ba8f47fecde4cf850701e7f2b639fb717370a6ff6ca784b"),
    "ballgame_d6": (
        dict(mode="ballgame", d=(6,), r=2, p=(0.3,), T=0.5, replicas=50, seed=17),
        "27a017d2c2b210a2b9440f59d28320e86a9ac7b687d893301c9bd2d51938beee"),
    "oracle_r4_d2": (
        dict(mode="oracle", d=(2,), r=4, p=(0.3,), T=2.0, replicas=1, seed=19),
        "b08a9b79199ae63d1d80e582a4773e3537875d04416ad76251757635b00c4276"),
    "oracle_r4_d2_delta": (
        dict(mode="oracle", d=(2,), r=4, p=(0.3,), T=1.0, replicas=1, seed=20,
             grid=5, init_bits="1100100000110010"),
        "476567ab713a9e45ba2a6bea522218ac511ead52ff6cc72d972caf47887f0ed6"),
}
ORACLE = sorted(name for name in GOLDEN if name.startswith("oracle"))


def _digest(name, out_dir) -> str:
    fields, _ = GOLDEN[name]
    run_experiment(ExperimentSpec(out=str(out_dir), **fields))
    return hashlib.sha256((out_dir / "rows.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rows_csv_bytes(name, tmp_path):
    assert _digest(name, tmp_path) == GOLDEN[name][1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_oracle_bytes_ignore_blas_threads(threads, tmp_path):
    """BLAS fixes its thread count at load, so each count runs in a fresh
    interpreter; 2^16 states is large enough for BLAS to split a dot product."""
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(sys.path))
    script = ("import pathlib, sys, test_golden as g\n"
              "for name in g.ORACLE:\n"
              "    out = pathlib.Path(sys.argv[1]) / name\n"
              "    print(name, g._digest(name, out))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          cwd=os.path.dirname(__file__), capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.split() == [w for name in ORACLE for w in (name, GOLDEN[name][1])]


def _slot_engine(cfg, kind, T, rng, order="kernel", ever=None):
    """Reference loop: one count update per neighbor slot (2d per flip, so
    twice per distinct neighbor on r = 2) and a scalar rate check of x and
    its neighbors.  Same draws as the engine: Exp(k) gap, then a uniform
    index into the active set.

    order="kernel" rechecks x, then its distinct neighbors in neighbors()
    order, which is the engine's walk; order="set" rechecks them in the
    iteration order of set(neighbors(x)) plus x, the walk of earlier
    versions and the law reference for the kernel walk.  The order of the
    adds and removes fixes active.items, so the two draw different paths
    from one law.  A boolean array `ever` is or-ed in place with
    ones_nbr >= d at every neighbor after every flip (E_T, if it starts
    as ones_nbr >= d).
    """
    rate = threshold_rate if kind == THRESHOLD else death_rate
    active = _IndexedSet(cfg.shape.n)
    for x in range(cfg.shape.n):
        if rate(cfg, x):
            active.add(x)
    events, t = [], 0.0
    while len(active):
        k = len(active)
        dt = _exp_variate(rng, k)
        if t + dt >= T:
            break
        t += dt
        x = active.items[int(rng.integers(k))]
        new = 1 - int(cfg.bits[x])
        cfg.bits[x] = new
        nbrs = neighbors(cfg.shape, x)
        for y in nbrs:
            cfg.ones_nbr[y] += 1 if new == 1 else -1
        if order == "set":
            touched = set(nbrs)
            touched.add(x)
        else:
            touched = [x, *dict.fromkeys(nbrs)]
        for y in touched:
            if rate(cfg, y):
                active.add(y)
            else:
                active.remove(y)
        if ever is not None:
            for y in nbrs:
                ever[y] |= cfg.ones_nbr[y] >= cfg.shape.d
        events.append((t, x, new))
    return events, active.items


@pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
@pytest.mark.parametrize("d,r,p", [(10, 2, 0.4), (5, 3, 0.45)])
def test_engine_matches_slot_loop(kind, d, r, p):
    shape = TorusShape(d, r)
    g, h = (RngStream(21, (d, r)).generator() for _ in range(2))
    cfg, ref = sample_product(shape, p, g), sample_product(shape, p, h)
    engine = EventEngine(cfg, kind, g)
    events = []
    while (ev := engine.step(3.0)) is not None:
        events.append((ev.time, ev.vertex, ev.new_value))
    ref_events, ref_items = _slot_engine(ref, kind, 3.0, h)
    assert len(events) > 100
    assert events == ref_events
    assert engine.active.items == ref_items
    assert np.array_equal(cfg.bits, ref.bits)
    assert np.array_equal(cfg.ones_nbr, ref.ones_nbr)


def _final_sizes(engine_side: bool, d, r, p, T, replicas, seed):
    """(|A_T|, |E_T|) of each replica: of the engine (spin.run with an
    EAccumulator) or of the set-order slot loop."""
    shape = TorusShape(d, r)
    out = np.empty((replicas, 2), dtype=np.int64)
    for i in range(replicas):
        g = RngStream(seed, (int(engine_side), i)).generator()
        cfg = sample_product(shape, p, g)
        if engine_side:
            acc = EAccumulator()
            run(cfg, THRESHOLD, T, g, observers=[acc])
            out[i] = cfg.ones_count(), acc.size
        else:
            ever = cfg.ones_nbr >= d
            _slot_engine(cfg, THRESHOLD, T, g, order="set", ever=ever)
            out[i] = cfg.ones_count(), int(ever.sum())
    return out


def _pooled_chi2_pvalue(a, b):
    """Two-sample chi-square homogeneity p-value of two integer samples,
    with adjacent values pooled until each cell expects >= 5 per sample."""
    lo = min(a.min(), b.min())
    width = max(a.max(), b.max()) - lo + 1
    counts = np.stack([np.bincount(a - lo, minlength=width),
                       np.bincount(b - lo, minlength=width)])
    share = counts.sum(axis=1, keepdims=True) / counts.sum()
    cells, cell = [], np.zeros(2)
    for col in counts.T:
        cell = cell + col
        if (share.ravel() * cell.sum()).min() >= 5:
            cells.append(cell)
            cell = np.zeros(2)
    assert len(cells) >= 2, "too few pooled cells for a law test"
    cells[-1] = cells[-1] + cell  # the short tail joins the last full cell
    table = np.array(cells).T
    return chi2_contingency(table, correction=False).pvalue


@pytest.mark.parametrize("d,r,p,T", [(6, 2, 0.3, 1.0), (3, 3, 0.4, 1.0)])
def test_kernel_walk_keeps_the_law(d, r, p, T):
    """The engine's kernel-order walk against the set-order walk it replaced:
    a pooled chi-square on the final |A_T| and on |E_T|, at pinned seeds."""
    replicas = 600
    engine = _final_sizes(True, d, r, p, T, replicas, seed=41)
    ref = _final_sizes(False, d, r, p, T, replicas, seed=41)
    for col, name in ((0, "|A_T|"), (1, "|E_T|")):
        pvalue = _pooled_chi2_pvalue(engine[:, col], ref[:, col])
        assert pvalue > 1e-3, f"{name} law moved: p = {pvalue:.2e}"


def test_engine_mean_matches_orbit_oracle_r2():
    """Mean |A_t| of the engine on (4, 2), the r = 2 path with w = 2, within
    4 SE of the exact orbit chain at each grid time."""
    shape, p, grid, replicas = TorusShape(4, 2), 0.3, (0.25, 0.5, 1.0), 2000
    sizes = np.empty((replicas, len(grid)))
    for i in range(replicas):
        g = RngStream(43, i).generator()
        traj = run(sample_product(shape, p, g), THRESHOLD, grid[-1], g)
        series = fraction_series(traj)
        sizes[i] = [shape.n * series.value_at(t) for t in grid]
    exact = UniformizedSeries(shape, p)
    for j, t in enumerate(grid):
        se = sizes[:, j].std(ddof=1) / math.sqrt(replicas)
        assert abs(sizes[:, j].mean() - exact.mean_ones(t)) < 4 * se
