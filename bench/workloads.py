"""The four benchmark workloads: harness specs, sized per run.

A workload run is one or more `ExperimentSpec`s passed to
`torusvoter.harness.run_experiment`, the path the CLI takes.  The benchmark
seed only picks the spec seeds, so the program receives nothing but the
generated specs.  `tiny` sizes serve the self-test; they exercise the same
code on tori small enough to finish in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[dict, ...]  # ExperimentSpec fields except seed and out
    tiny: tuple[dict, ...]
    calibration: str = "interpreter"  # kernel in calibration.py

    @property
    def mode(self) -> str:
        return self.specs[0]["mode"]

    @property
    def per_call(self) -> bool:
        """Whether a replica's time is one timed dynamics call.  Otherwise it is
        its run's time over the run's replicas: the ballgame samplers loop over
        replicas inside one call, and oracle solves differ in cost along the
        time grid, so a median over single solves would jump between them."""
        return self.mode in ("simulate", "couple")

    def specs_for(self, tiny: bool) -> tuple[dict, ...]:
        return self.tiny if tiny else self.specs

    def replicas_per_run(self, tiny: bool) -> int:
        """Replicas of one run; for the oracle, one replica is one grid-time solve."""
        specs = self.specs_for(tiny)
        if self.mode == "oracle":
            return sum(s["grid"] for s in specs)
        # couple runs two specs with paired replica indices: one replica each
        return specs[0]["replicas"]


def _spec(mode, d, p, T, replicas, r=2, grid=9):
    return {"mode": mode, "d": (d,), "r": r, "p": tuple(p), "T": T,
            "replicas": replicas, "grid": grid}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "simulate_d16",
            "high-d threshold engine: n*2d is past the neighbor-table cutoff, "
            "so every event calls torus.neighbors",
            (_spec("simulate", 16, (0.2,), 2.0, 1),),
            (_spec("simulate", 6, (0.2,), 2.0, 2),)),
        Workload(
            "couple_d12",
            "two coupled chains (monotone and voter/death) with a cached "
            "neighbor table and one domination check per event",
            (_spec("couple", 12, (0.3, 0.45), 1.0, 2),
             _spec("couple", 12, (0.4,), 1.0, 2)),
            (_spec("couple", 6, (0.3, 0.45), 1.0, 2),
             _spec("couple", 6, (0.4,), 1.0, 2))),
        Workload(
            "ballgame_d8",
            "the four dominance-chain samplers at their acceptance parameters; "
            "box processes bypass the neighbor arithmetic",
            (_spec("ballgame", 8, (0.3,), 0.5, 25),),
            (_spec("ballgame", 6, (0.3,), 0.5, 10),)),
        Workload(
            "oracle_ctmc",
            "exact 2^16-state uniformization with sparse matvecs; bypasses "
            "the Monte Carlo engine",
            (_spec("oracle", 2, (0.3,), 2.0, 1, r=4, grid=9),),
            (_spec("oracle", 2, (0.3,), 2.0, 1, r=3, grid=3),),
            "sparse"),
    )
}


def run_seed(seed: int, k: int) -> int:
    """Spec seed of the k-th run of a benchmark run started with `seed`."""
    return seed * 100_000 + k
