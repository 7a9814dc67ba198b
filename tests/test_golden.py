"""Golden outputs: rows.csv bytes of each mode at pinned seeds.

The engine is an exact sampler whose speed-ups keep the RNG draw sequence,
so these hashes must not move under an optimisation.  A change that alters
the law or the draw order regenerates them and says why.  The `oracle`
bytes must also be the same at every BLAS thread count.  They may move
with the order in which the exact solve sums its floats, provided the
solve still agrees with the uniformized chain over all 2^n states
(tests/test_oracle.py::TestFullChainAgreement, to 1e-12 absolute).
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from torusvoter.harness import ExperimentSpec, run_experiment
from torusvoter.spin import (DEATH, THRESHOLD, EventEngine, RngStream, _IndexedSet,
                             death_rate, sample_product, threshold_rate)
from torusvoter.torus import TorusShape, neighbors

from bruteforce import _exp_variate

GOLDEN = {
    "simulate_r2_d8": (
        dict(mode="simulate", d=(8,), r=2, p=(0.4,), T=2.0, replicas=5, seed=11),
        "61828afccef797eed18131ab8a1b29e679aa8ad75882383dc68d61e6d9d2f2b2"),
    "simulate_r3_d4": (
        dict(mode="simulate", d=(4,), r=3, p=(0.4,), T=2.0, replicas=5, seed=12),
        "93dc5101c5d59afa01fff559dda860edaca516680090a3cb58d4c3a5952f86fb"),
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
        "628e79458bd1c23ff87670189b9421a3a4965a69088cd18cbfae9d570e1f9eb1"),
    "ldp_d60": (
        dict(mode="ldp", d=(60,), r=2, p=(0.3,), T=1.0, replicas=1, seed=18),
        "f8caf6f9ef5f5c8a3ba8f47fecde4cf850701e7f2b639fb717370a6ff6ca784b"),
    "ballgame_d6": (
        dict(mode="ballgame", d=(6,), r=2, p=(0.3,), T=0.5, replicas=50, seed=17),
        "3498ddaec7eed36332cd2c35a4ac02294ae8e24e7965e4d99a97bd4b404aa469"),
    "oracle_r4_d2": (
        dict(mode="oracle", d=(2,), r=4, p=(0.3,), T=2.0, replicas=1, seed=19),
        "074849c26900b81f12b1cb8da8cfe70d8bd4d6751eb6e3568253dc1fc2eb47c3"),
    "oracle_r4_d2_delta": (
        dict(mode="oracle", d=(2,), r=4, p=(0.3,), T=1.0, replicas=1, seed=20,
             grid=5, init_bits="1100100000110010"),
        "94553c724dfea23b0f17c64e0a711d681b0a8fa607e54acfc0ea6e7e4f5e19ea"),
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


def _slot_engine(cfg, kind, T, rng):
    """Reference loop: one count update per neighbor slot (2d per flip, so
    twice per distinct neighbor on r = 2) and a scalar rate check of x and
    its neighbors.  Same draws as the engine: Exp(k) gap, then a uniform
    index into the active set."""
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
        touched = set(nbrs)
        touched.add(x)
        for y in touched:
            if rate(cfg, y):
                active.add(y)
            else:
                active.remove(y)
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
