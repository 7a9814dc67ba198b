"""torusvoter benchmark: one workload per call, each in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

--trace 0 measures the end-to-end metrics with no tracing; --trace 1 runs
the workload once untraced and once traced and reports per-layer metrics
plus the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object {correct, attempted, failed, metrics}.
--smoke runs every workload at tiny size, checks that every metric is
reported and that each output check fires on a corrupted result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import calibrate, factor  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "replicas_per_s": "1/s",
    "replica_s.p50": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 75


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(*args: str) -> dict:
    """Run worker.py in a fresh process; return its JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, tiny: bool) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the package and set up,
    as measured and at the reference speed."""
    args = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--probe"]
    args += ["--tiny"] if tiny else []
    raw, ref = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(args, cwd=ROOT, env=worker_env(), check=True,
                       timeout=WORKER_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        after = calibrate()
        ref.append(raw[-1] * factor(before, after))
        before = after
    return raw, ref


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(seed: int, res: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": res["numpy"],
            "scipy": res["scipy"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "seed": seed}


def end_to_end(name: str, seed: int, seconds: float, tiny: bool):
    setups_raw, setups = setup_seconds(name, tiny)
    res = run_worker("--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0", *(["--tiny"] if tiny else []))
    times, raw = res["replica_s"], res["replica_s_raw"]
    engine = WORKLOADS[name].per_call  # events exist in the engine modes only
    metrics = {
        "setup_s": statistics.median(setups),
        "replicas_per_s": res["replicas"] / res["busy_ref_s"],
        # with no replica time (every dynamics call raised), the run average
        # keeps the result printable; `failed` already marks it incorrect
        "replica_s.p50": (statistics.median(times) if times
                          else res["busy_ref_s"] / res["replicas"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {
        "setup_s.samples": len(setups),
        "replicas": res["replicas"],
        "replica_s.samples": len(times),
        # a percentile needs ten samples beyond it
        "replica_s.p90": percentile(times, 90) if len(times) >= 100 else None,
        "events_per_s": res["events"] / res["busy_ref_s"] if engine else None,
        "raw": {"setup_s": statistics.median(setups_raw),
                "replicas_per_s": res["replicas"] / res["busy_s"],
                "replica_s.p50": (statistics.median(raw) if raw
                                  else res["busy_s"] / res["replicas"]),
                "events_per_s": res["events"] / res["busy_s"] if engine else None,
                "calibration_s.p50": statistics.median(res["calibration_s"])},
        "fail_frac": res["failed"] / res["attempted"],
        "ordering_violations": res["ordering_violations"],
        "rows_sha256": res["rows_sha256"],
        "first_run_seed": res["first_run_seed"],
    }
    return metrics, END_TO_END, extra, res


def per_layer(name: str, seed: int, seconds: float, tiny: bool):
    # half the time each, so a traced run costs what an untraced one does
    extra_args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds / 2)]
    extra_args += ["--tiny"] if tiny else []
    plain = run_worker(*extra_args, "--trace", "0")
    traced = run_worker(*extra_args, "--trace", "1")
    metrics = dict(traced["layers"])
    plain_rate = plain["replicas"] / plain["busy_ref_s"]
    traced_rate = traced["replicas"] / traced["busy_ref_s"]
    metrics["trace.overhead"] = plain_rate / traced_rate
    extra = {"untraced_replicas_per_s": plain_rate, "traced_replicas_per_s": traced_rate,
             "traced_runs": traced["runs"]}
    res = dict(traced, attempted=plain["attempted"] + traced["attempted"],
               failed=plain["failed"] + traced["failed"],
               messages=plain["messages"] + traced["messages"])
    return metrics, LAYER_METRICS, extra, res


def one(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    measure = per_layer if trace else end_to_end
    values, units, extra, res = measure(name, seed, seconds, tiny)
    for metric, unit in units.items():
        print(f"{name} {metric} {values[metric]:.6g} {unit}")
    for message in res["messages"]:
        print(f"{name} CHECK FAILED: {message}")
    print(json.dumps({"workload": name, "extra": extra,
                      "provenance": provenance(seed, res)}))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}


def smoke() -> int:
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
        if {m["name"]: m["unit"] for m in declared[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from the metrics reported")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, LAYER_METRICS)):
            out = one(name, seed=1, seconds=0.5, trace=trace, tiny=True)
            got = {m: v["unit"] for m, v in out["metrics"].items()}
            if got != units:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got)}")
            if out["failed"] or not out["attempted"] or not out["correct"]:
                problems.append(f"{name} trace={int(trace)}: fail_frac "
                                f"{out['failed']}/{out['attempted']}")
    selftest = run_worker("--selftest")
    for case, fired_right in selftest["selftest"].items():
        print(f"selftest {case} {'ok' if fired_right else 'WRONG'}")
        if not fired_right:
            problems.append(f"selftest {case}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "torusvoter" / "__init__.py").is_file():
        print(f"no torusvoter package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    result = one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
