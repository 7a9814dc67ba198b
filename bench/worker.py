"""One workload in one fresh process: set up, measure, check, report.

Started by run.py with single-threaded BLAS and PYTHONPATH pointing at the
checkout's src/.  Prints one JSON object as its last line of output.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --probe    # set-up only
    python3 bench/worker.py --selftest                 # checks fire on bad data
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from calibration import calibrate, factor  # noqa: E402
from workloads import WORKLOADS, run_seed  # noqa: E402

MAX_MESSAGES = 5


def import_package():
    """Import torusvoter from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torusvoter
    import torusvoter.harness  # noqa: F401  (pulls in every layer module)

    if Path(torusvoter.__file__).resolve().parent != src / "torusvoter":
        raise ImportError(f"torusvoter imported from {torusvoter.__file__}, not {src}")
    return torusvoter


def set_up(tv, workload, tiny):
    """What a CLI run pays before its first replica: shapes, table, specs."""
    for s in workload.specs_for(tiny):
        tv.torus.TorusShape(s["d"][0], s["r"]).neighbor_table()
        tv.harness.ExperimentSpec(seed=0, **s).validate()


class Recorder:
    """Per-replica timings, event counts and exact checks, hooked in where the
    harness looks up each workload's per-replica call."""

    def __init__(self, tv, tracer):
        self.tv = tv
        self.tracer = tracer
        self.unit_times: dict[str, list[tuple[int, float]]] = {}  # (run, s)
        self.run = 0  # index of the workload run in progress
        self.events = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.violations = 0
        self.excluded = 0.0  # check time inside the measured phase
        self.deferred: list = []  # checks to run after peak RSS is read

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def check(self, fn, *args) -> None:
        t0 = time.perf_counter()
        tracer = self.tracer
        if tracer is not None:
            sid = tracer.open("bench.check")
            tracer.paused = True
        try:
            errors = fn(*args)
        except Exception as exc:  # a crashing check is a failed check
            errors = [f"{fn.__name__} raised {exc!r}"]
        finally:
            if tracer is not None:
                tracer.paused = False
                tracer.close(sid)
        self.attempted += 1
        if errors:
            self.fail(f"{fn.__name__}: {errors[0]}")
        self.excluded += time.perf_counter() - t0

    def timed(self, owner, attr, kind, after):
        """Replace owner.attr by a wrapper that times each call under `kind`
        and passes (result, args) to `after`; DominationError is a failure."""
        fn = getattr(owner, attr)
        times = self.unit_times.setdefault(kind, [])
        domination = self.tv.coupling.DominationError

        def recorded(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except domination as exc:
                self.attempted += 1
                self.fail(f"{kind}: {exc}")
                raise
            times.append((self.run, time.perf_counter() - t0))
            after(result, args)
            return result

        setattr(owner, attr, recorded)

    def install(self, workload, seed, tiny):
        tv = self.tv
        spec = workload.specs_for(tiny)[0]
        if workload.mode == "simulate":
            def after(traj, args):
                self.events += len(traj.events)
                self.check(checks.simulate_replica, tv.spin, traj, args[0])
            self.timed(tv.spin, "run", "spin.run", after)
        elif workload.mode == "couple":
            grid = tv.harness.time_grid(tv.harness.ExperimentSpec(seed=0, **spec))

            def after(traj, args):
                self.events += len(traj.events)
                self.check(checks.couple_replica, traj, grid)
            for attr in ("coupled_run_monotone", "coupled_run_eta_zeta"):
                self.timed(tv.coupling, attr, attr, after)
        elif workload.mode == "ballgame":
            def after(report, args):
                self.violations += len(report.violations)
                self.check(checks.ballgame_samples, report.samples, report.shape.n)
            self.timed(tv.ballgame, "dominance_experiment", "ballgame", after)
        elif workload.mode == "oracle":
            grid = tv.harness.time_grid(tv.harness.ExperimentSpec(seed=0, **spec))
            cross_t = float(grid[1 + seed % (len(grid) - 1)])

            def after(mean, args):
                shape, p, t = args
                if t == 0.0:
                    self.check(checks.oracle_initial, mean, shape.n, p)
                elif t == cross_t and not self.deferred:
                    self.deferred.append((shape, p, t, mean))
            self.timed(tv.oracle, "ctmc_mean_ones", "oracle.solve", after)

    def run_deferred(self) -> None:
        for shape, p, t, mean in self.deferred:
            reference = checks.generator_mean(self.tv.torus, shape, p, t)
            self.check(checks.oracle_reference, mean, reference)

    def replica_times(self, workload, run_times, per_run, scale) -> list[float]:
        """Per-replica wall times, each multiplied by its run's scale."""
        if not workload.per_call:
            return [t * scale[k] / per_run for k, t in enumerate(run_times)]
        # couple: replica i is the i-th monotone plus the i-th voter/death run
        return [sum(t * scale[k] for k, t in calls)
                for calls in zip(*self.unit_times.values())]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(args) -> dict:
    tv = import_package()
    import numpy
    import scipy

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer, tv)
    recorder = Recorder(tv, tracer)
    recorder.install(workload, args.seed, args.tiny)
    out_root = ROOT / ".bench_out" / args.workload / ("trace" if args.trace else "plain")
    set_up(tv, workload, args.tiny)
    if tracer is not None:
        tracer.mark_measured_phase()

    specs = workload.specs_for(args.tiny)
    per_run = workload.replicas_per_run(args.tiny)
    run_times: list[float] = []
    kernel = workload.calibration
    calibrations = [calibrate(kernel)]  # one before each run and one after the last
    busy = 0.0
    hashes = []
    while busy < args.seconds:
        k = recorder.run = len(run_times)
        excluded = recorder.excluded
        t0 = time.perf_counter()
        for j, fields in enumerate(specs):
            spec = tv.harness.ExperimentSpec(seed=run_seed(args.seed, k),
                                             out=str(out_root / f"spec{j}"), **fields)
            recorder.attempted += 1
            try:
                tv.harness.run_experiment(spec)
            except Exception as exc:  # reported as a failure, the run goes on
                recorder.fail(f"run_experiment({spec.mode}) raised {exc!r}")
        elapsed = time.perf_counter() - t0 - (recorder.excluded - excluded)
        run_times.append(elapsed)
        calibrations.append(calibrate(kernel))
        busy += elapsed
        if k == 0:
            hashes = [sha256(out_root / f"spec{j}" / "rows.csv")
                      for j in range(len(specs))
                      if (out_root / f"spec{j}" / "rows.csv").is_file()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recorder.run_deferred()

    scale = [factor(a, b, kernel) for a, b in zip(calibrations, calibrations[1:])]
    result = {
        "runs": len(run_times),
        "replicas": len(run_times) * per_run,
        "busy_s": busy,
        "busy_ref_s": sum(t * f for t, f in zip(run_times, scale)),
        "replica_s": recorder.replica_times(workload, run_times, per_run, scale),
        "replica_s_raw": recorder.replica_times(workload, run_times, per_run,
                                                [1.0] * len(scale)),
        "calibration_s": calibrations,
        "events": recorder.events,
        "peak_rss_mb": peak_rss_mb,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "messages": recorder.messages,
        "ordering_violations": recorder.violations,
        "rows_sha256": hashes,
        "first_run_seed": run_seed(args.seed, 0),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(run_times))
        tracer.dump(str(out_root / "spans.npz"))
    return result


def selftest() -> dict:
    """Run each check on a real tiny output and on corrupted copies of it."""
    tv = import_package()
    import numpy as np
    from dataclasses import replace

    spin, coupling = tv.spin, tv.coupling
    results = {}

    def expect(name, errors, should_fire):
        results[name] = bool(errors) == should_fire

    # simulate: replay against the engine
    shape = tv.torus.TorusShape(4, 2)
    rng = spin.RngStream(7, 0).generator()
    cfg = spin.sample_product(shape, 0.3, rng)
    traj = spin.run(cfg, spin.THRESHOLD, 2.0, rng)
    expect("simulate.clean", checks.simulate_replica(spin, traj, cfg), False)
    bad_final = cfg.copy()
    bad_final.bits[0] ^= 1
    expect("simulate.flipped_bit", checks.simulate_replica(spin, traj, bad_final), True)
    start = traj.initial
    idle = next(x for x in range(shape.n) if spin.threshold_rate(start, x) == 0)
    ev = spin.FlipEvent(traj.events[0].time, idle, 1 - int(start.bits[idle]))
    bad_traj = replace(traj, events=[ev] + traj.events[1:])
    expect("simulate.rate0_flip", checks.simulate_replica(spin, bad_traj, cfg), True)
    drift = start.copy()
    drift.ones_nbr[0] += 1
    expect("simulate.count_drift",
           checks.simulate_replica(spin, replace(traj, initial=drift), cfg), True)

    # couple: lower <= upper; swapped marginals must break it
    ctraj = coupling.coupled_run_monotone(shape, 0.3, 0.45, 1.0,
                                          spin.RngStream(7, 1).generator())
    grid = np.linspace(0.0, 1.0, 9)
    expect("couple.clean", checks.couple_replica(ctraj, grid), False)
    swapped = coupling.CoupledTrajectory(
        ctraj.lower_initial, ctraj.upper_initial,
        [coupling.CoupledEvent(e.time, e.vertex, e.lower_new, e.upper_new)
         for e in ctraj.events], ctraj.horizon)
    expect("couple.swapped_marginals", checks.couple_replica(swapped, grid), True)

    # couple: a DominationError in the program is counted as a failure
    class Fake:
        @staticmethod
        def run(*args):
            raise coupling.DominationError("lower(0) = 1 > upper(0) = 0")
    recorder = Recorder(tv, None)
    recorder.timed(Fake, "run", "fake", lambda result, args: None)
    try:
        Fake.run()
    except coupling.DominationError:
        pass
    results["couple.domination_error"] = recorder.failed == 1

    # ballgame: box counts in range
    streams = [spin.RngStream(7, k).generator() for k in range(4)]
    report = tv.ballgame.dominance_experiment(tv.torus.TorusShape(6, 2), 0.3, 0.5,
                                              5, None, streams)
    n = report.shape.n
    expect("ballgame.clean", checks.ballgame_samples(report.samples, n), False)
    over = {k: v.copy() for k, v in report.samples.items()}
    over["E_T"][0] = n + 1
    expect("ballgame.E_T_over_n", checks.ballgame_samples(over, n), True)
    negative = {k: v.copy() for k, v in report.samples.items()}
    negative["C_tilde"][0] = -1
    expect("ballgame.C_tilde_negative", checks.ballgame_samples(negative, n), True)

    # oracle: t=0 identity and an independent generator solve
    oshape = tv.torus.TorusShape(2, 3)
    m0 = tv.oracle.ctmc_mean_ones(oshape, 0.3, 0.0)
    expect("oracle.t0_clean", checks.oracle_initial(m0, oshape.n, 0.3), False)
    expect("oracle.t0_perturbed", checks.oracle_initial(m0 + 1e-6, oshape.n, 0.3), True)
    m1 = tv.oracle.ctmc_mean_ones(oshape, 0.3, 0.75)
    ref = checks.generator_mean(tv.torus, oshape, 0.3, 0.75)
    expect("oracle.reference_clean", checks.oracle_reference(m1, ref), False)
    expect("oracle.reference_perturbed", checks.oracle_reference(m1 + 1e-6, ref), True)
    return {"selftest": results, "ok": all(results.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--probe", action="store_true", help="set up, then exit")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        out = selftest()
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.probe:
        set_up(import_package(), WORKLOADS[args.workload], args.tiny)
        return 0
    else:
        out = measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
