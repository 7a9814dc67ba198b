import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from torusvoter import ballgame, coupling, harness, spin
from torusvoter.cli import main, spec_from_args, build_parser
from torusvoter.harness import (ExperimentSpec, ValidationError,
                                parse_config_file, run_experiment, time_grid)
from torusvoter.oracle import CapacityError


def spec(**kw):
    base = dict(mode="simulate", d=(2,), r=3, p=(0.4,), T=1.0, replicas=3,
                seed=7, grid=5)
    base.update(kw)
    return ExperimentSpec(**base)


class TestValidation:
    def test_good_spec_passes(self):
        spec().validate()

    def test_bad_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            spec(mode="fly").validate()

    def test_message_lists_every_problem(self):
        with pytest.raises(ValidationError) as err:
            spec(r=1, T=-1.0, replicas=0, grid=1).validate()
        msg = str(err.value)
        for field in ("r must", "T must", "replicas must", "grid must"):
            assert field in msg

    def test_sweep_needs_increasing_d_list(self):
        with pytest.raises(ValidationError, match="increasing"):
            spec(mode="sweep", d=(4, 2, 6)).validate()
        with pytest.raises(ValidationError, match=">= 3"):
            spec(mode="sweep", d=(2, 4)).validate()
        spec(mode="sweep", d=(2, 4, 6), r=2, p=(0.2,)).validate()

    def test_two_densities_only_for_couple(self):
        with pytest.raises(ValidationError, match="single density"):
            spec(p=(0.3, 0.4)).validate()
        spec(mode="couple", p=(0.3, 0.4)).validate()
        with pytest.raises(ValidationError, match="p1 <= p2"):
            spec(mode="couple", p=(0.5, 0.4)).validate()

    def test_init_bits_checked(self):
        with pytest.raises(ValidationError, match="0/1"):
            spec(init_bits="01x").validate()
        with pytest.raises(ValidationError, match="length"):
            spec(init_bits="010").validate()  # r^d = 9
        spec(init_bits="010110011").validate()
        spec(mode="oracle", init_bits="010110011").validate()

    @pytest.mark.parametrize("mode,d,p", [("couple", (2,), (0.3,)),
                                          ("couple", (2,), (0.3, 0.45)),
                                          ("sweep", (2, 3, 4), (0.3,)),
                                          ("ballgame", (2,), (0.3,)),
                                          ("ldp", (2,), (0.3,))])
    def test_init_bits_refused_where_ignored(self, mode, d, p):
        with pytest.raises(ValidationError, match="init_bits is used only"):
            spec(mode=mode, d=d, r=3, p=p, init_bits="010110011").validate()

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    @pytest.mark.parametrize("mode,d,p", [("simulate", (2,), (0.3,)),
                                          ("couple", (2,), (0.3,)),
                                          ("couple", (2,), (0.3, 0.45)),
                                          ("sweep", (2, 3, 4), (0.3,)),
                                          ("ballgame", (2,), (0.3,)),
                                          ("oracle", (2,), (0.3,)),
                                          ("ldp", (2,), (0.3,))],
                             ids=["simulate", "couple", "couple_monotone", "sweep",
                                  "ballgame", "oracle", "ldp"])
    def test_non_finite_horizon_refused(self, mode, d, p, T):
        with pytest.raises(ValidationError, match="T must be finite"):
            spec(mode=mode, d=d, p=p, T=T).validate()

    def test_time_grid(self):
        g = time_grid(spec(T=2.0, grid=5))
        assert list(g) == [0.0, 0.5, 1.0, 1.5, 2.0]


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_experiment(spec(out=str(out)))
            outs.append(out)
        rows_a = (outs[0] / "rows.csv").read_bytes()
        rows_b = (outs[1] / "rows.csv").read_bytes()
        assert rows_a == rows_b
        sum_a = json.loads((outs[0] / "summary.json").read_text())
        sum_b = json.loads((outs[1] / "summary.json").read_text())
        sum_a["spec"].pop("out"), sum_b["spec"].pop("out")
        assert sum_a == sum_b

    def test_different_seed_differs(self, tmp_path):
        a = run_experiment(spec(seed=1))
        b = run_experiment(spec(seed=2))
        assert a["summary"]["per_t"] != b["summary"]["per_t"]

    def test_summary_reproducible_from_rows(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(spec(out=str(out), replicas=5))
        with open(out / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        grid = time_grid(spec())
        for entry in result["summary"]["per_t"]:
            fracs = np.array([float(r["frac_ones"]) for r in rows
                              if float(r["t"]) == entry["t"]])
            assert fracs.size == 5
            assert entry["mean_frac"] == pytest.approx(float(fracs.mean()),
                                                       abs=1e-15)
            se = fracs.std(ddof=1) / math.sqrt(5)
            assert entry["se"] == pytest.approx(float(se), abs=1e-15)
        sups = {float(r["sup_deviation"]) for r in rows}
        assert result["summary"]["sup_deviation"]["median"] == pytest.approx(
            float(np.median(sorted(sups))), abs=1e-15)


class TestModes:
    def test_couple_reports_zero_violations(self):
        result = run_experiment(spec(mode="couple", d=(3,), r=2,
                                     p=(0.3, 0.45), replicas=5))
        assert result["summary"]["coupling"] == "monotone"
        assert result["summary"]["violations"] == 0
        for entry in result["summary"]["per_t"]:
            assert entry["mean_lower_frac"] <= entry["mean_upper_frac"] + 1e-12

    def test_couple_excludes_violating_replica(self, tmp_path, monkeypatch):
        from torusvoter import coupling

        real = coupling.coupled_run_monotone
        calls = []

        def violate_second(*args, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise coupling.DominationError("injected violation")
            return real(*args, **kw)

        monkeypatch.setattr(coupling, "coupled_run_monotone", violate_second)
        out = tmp_path / "couple"
        result = run_experiment(spec(mode="couple", d=(3,), r=2, p=(0.3, 0.45),
                                     replicas=4, out=str(out)))
        summary = result["summary"]
        assert summary["violations"] == 1
        with open(out / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {int(r["replica"]) for r in rows} == {0, 2, 3}
        for entry in summary["per_t"]:
            for col, side in (("lower_frac", "lower"), ("upper_frac", "upper")):
                vals = np.array([float(r[col]) for r in rows
                                 if float(r["t"]) == entry["t"]])
                assert vals.size == 3
                assert entry[f"mean_{side}_frac"] == pytest.approx(
                    float(vals.mean()), abs=1e-15)
                se = vals.std(ddof=1) / math.sqrt(3)
                assert entry[f"se_{side}"] == pytest.approx(float(se), abs=1e-15)

        calls[:] = [1]  # the lone replica makes the second call and violates
        summary = run_experiment(spec(mode="couple", d=(3,), r=2, p=(0.3, 0.45),
                                      replicas=1))["summary"]
        assert summary["violations"] == 1
        assert all(math.isnan(entry[key]) for entry in summary["per_t"]
                   for key in ("mean_lower_frac", "se_lower"))

    def test_sweep_trend_fields(self):
        result = run_experiment(spec(mode="sweep", d=(2, 3, 4), r=2,
                                     p=(0.2,), replicas=4))
        trend = result["summary"]["monotone_trend"]
        assert trend["total_steps"] == 2
        assert len(result["summary"]["per_d"]) == 3

    def test_oracle_mode_small_torus(self):
        result = run_experiment(spec(mode="oracle", d=(1,), r=4, p=(0.4,)))
        s = result["summary"]
        assert s["ctmc_available"]
        assert s["expected_C0"] > 0
        assert s["var_C0"] > 0
        assert s["ldp"]["K"] == pytest.approx(-math.log(0.96), abs=1e-12)

    @pytest.mark.parametrize("init_bits", [None, "110010100"])
    def test_oracle_builds_one_kernel_per_spec(self, monkeypatch, init_bits):
        from torusvoter import oracle

        calls = {"_state_tables": 0, "_uniformized_kernel": 0}
        for name in calls:
            real = getattr(oracle, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(oracle, name, counted)
        run_experiment(spec(mode="oracle", d=(2,), r=3, p=(0.4,), grid=9,
                            init_bits=init_bits))
        assert calls == {"_state_tables": 1, "_uniformized_kernel": 1}

    def test_ballgame_mode_writes_survival_rows(self, tmp_path):
        out = tmp_path / "bg"
        result = run_experiment(spec(mode="ballgame", d=(6,), r=2, p=(0.3,),
                                     T=0.3, replicas=30, out=str(out)))
        with open(out / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["approach"] for r in rows} == {"E_T", "C_hat", "C_bar",
                                                 "C_tilde"}
        assert len(rows) == 4 * len(result["summary"]["M_grid"])

    def test_ldp_mode(self):
        result = run_experiment(spec(mode="ldp", d=(40,), r=2, p=(0.3,)))
        assert result["summary"]["d_max"] == 40
        assert result["summary"]["final_drift"] < 0.2


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# experiment\nd = 3\np= 0.25 # density\nseed=42\n\n")
        assert parse_config_file(str(path)) == {"d": "3", "p": "0.25",
                                                "seed": "42"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("p 0.3\n")
        with pytest.raises(ValidationError, match="key=value"):
            parse_config_file(str(path))

    def test_cli_flags_override_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d=3\nr=2\np=0.25\nseed=42\n")
        args = build_parser().parse_args(
            ["simulate", "--config", str(path), "--p", "0.4"])
        s = spec_from_args(args)
        assert s.d == (3,)
        assert s.seed == 42
        assert s.p == (0.4,)

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("density=0.3\n")
        args = build_parser().parse_args(["simulate", "--config", str(path)])
        with pytest.raises(ValidationError, match="unknown config keys"):
            spec_from_args(args)


class TestCapacity:
    """A torus too large for memory fails before any per-vertex allocation.

    The memory limit is patched down to 1 MiB, so a d=16 torus (65536
    vertices) is already too large; nothing large is ever allocated.
    """

    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        monkeypatch.setattr(harness, "memory_limit", lambda: 1 << 20)

        def refuse(*args, **kwargs):
            raise AssertionError("per-vertex allocation before the capacity check")

        for owner, name in ((spin, "sample_product"), (spin, "run"),
                            (coupling, "coupled_run_monotone"),
                            (coupling, "coupled_run_eta_zeta"),
                            (ballgame, "dominance_experiment")):
            monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize("mode,d,p", [
        ("simulate", (16,), (0.2,)),
        ("couple", (16,), (0.3, 0.45)),
        ("couple", (16,), (0.4,)),
        ("sweep", (4, 8, 16), (0.2,)),
        ("ballgame", (16,), (0.3,)),
    ])
    def test_raises_before_allocating(self, tiny_memory, mode, d, p):
        with pytest.raises(CapacityError, match="memory limit"):
            run_experiment(spec(mode=mode, d=d, r=2, p=p))

    def test_cli_exit_code(self, tiny_memory, capsys):
        code = main(["simulate", "--d", "16", "--p", "0.2", "--replicas", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "Traceback" not in err

    def test_small_torus_fits(self, monkeypatch):
        monkeypatch.setattr(harness, "memory_limit", lambda: 1 << 20)
        result = run_experiment(spec(mode="simulate", d=(8,), r=2, replicas=1))
        assert len(result["summary"]["per_t"]) == 5

    def test_limit_honours_rlimit_as(self, monkeypatch):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(harness.resource, "getrlimit",
                            lambda which: (harness.resource.RLIM_INFINITY,) * 2)
        assert harness.memory_limit() == physical
        monkeypatch.setattr(harness.resource, "getrlimit",
                            lambda which: (physical // 3, harness.resource.RLIM_INFINITY))
        assert harness.memory_limit() == physical // 3


class TestCliExitCodes:
    def test_success(self, capsys):
        code = main(["simulate", "--d", "2", "--r", "2", "--p", "0.4",
                     "--T", "0.5", "--replicas", "2", "--seed", "1"])
        assert code == 0
        assert "mode=simulate" in capsys.readouterr().out

    def test_validation_error(self, capsys):
        code = main(["simulate", "--replicas", "0"])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["couple", "--d", "2", "--p", "0.3"],
        ["couple", "--d", "2", "--p", "0.3,0.45"],
        ["sweep", "--d", "2,3,4", "--p", "0.3"],
        ["ballgame", "--d", "2", "--p", "0.3"],
        ["ldp", "--d", "2", "--p", "0.3"]])
    def test_init_refused_where_ignored(self, argv, capsys):
        code = main(argv + ["--r", "2", "--T", "0.5", "--replicas", "2",
                            "--init", "1111"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "init_bits" in err

    def test_capacity_error(self, capsys):
        for d, r, init in (("3", "3", "0" * 27), ("5", "2", "1" * 32)):
            code = main(["oracle", "--d", d, "--r", r, "--p", "0.4", "--init", init])
            assert code == 3
            assert "capacity error" in capsys.readouterr().err

    def test_single_box_jump_cap(self, capsys):
        code = main(["ballgame", "--d", "6", "--p", "0.3", "--T", "3",
                     "--replicas", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:")
        assert "jumps" in err and "Traceback" not in err

    def test_oracle_past_poisson_underflow(self):
        # n*T = 760: e^{-nT} underflows; runs in a fresh interpreter under a
        # timeout so that a hang fails
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        cmd = [sys.executable, "-m", "torusvoter.cli", "oracle", "--d", "1",
               "--r", "4", "--p", "0.4"]
        ok = subprocess.run(cmd + ["--T", "190"], env=env, capture_output=True,
                            text=True, timeout=60)
        assert ok.returncode == 0, ok.stderr
        assert "mode=oracle" in ok.stdout
        capped = subprocess.run(cmd + ["--T", "1e6"], env=env, capture_output=True,
                                text=True, timeout=60)
        assert capped.returncode == 2
        assert capped.stderr.startswith("validation error:")
        assert "uniformization steps" in capped.stderr
        assert "Traceback" not in capped.stderr

    @pytest.mark.parametrize("argv", [["oracle", "--T", "nan"], ["oracle", "--T", "inf"],
                                      ["simulate", "--T", "nan"]],
                             ids=["oracle-nan", "oracle-inf", "simulate-nan"])
    def test_non_finite_horizon(self, argv, capsys):
        code = main(argv + ["--d", "1", "--r", "4", "--p", "0.4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "T must be finite" in err
        assert "Traceback" not in err

    def test_oracle_large_torus_degrades_gracefully(self):
        result = run_experiment(spec(mode="oracle", d=(5,), r=3, p=(0.4,)))
        assert not result["summary"]["ctmc_available"]

    def test_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["simulate", "--out", str(blocker / "sub"),
                     "--replicas", "1"])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["ldp", "--d", "30", "--p", "0.3", "--out", str(out)])
        assert code == 0
        assert (out / "rows.csv").exists()
        assert (out / "summary.json").exists()


def test_bench_tracer_finds_every_name_it_wraps():
    """bench/tracing.py wraps package functions by name; a renamed or
    removed one makes install raise AttributeError.  Runs every mode but
    ldp under the tracer in a fresh interpreter."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = (
        "import sys, torusvoter, torusvoter.harness as h\n"
        f"sys.path.insert(0, {bench!r})\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer, torusvoter)\n"
        "base = dict(r=2, T=0.5, replicas=2, seed=3)\n"
        "for mode, d, p in [('simulate', (4,), (0.3,)), ('couple', (4,), (0.3,)),\n"
        "                   ('couple', (4,), (0.3, 0.45)), ('sweep', (2, 3, 4), (0.3,)),\n"
        "                   ('ballgame', (6,), (0.3,)), ('oracle', (2,), (0.3,))]:\n"
        "    h.run_experiment(h.ExperimentSpec(mode=mode, d=d, p=p, **base))\n"
        "m = tracer.layer_metrics(1)\n"
        "print(m['spin.step.calls'], m['coupling.check.calls'])\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps, checks = map(float, proc.stdout.split())
    assert steps > 0 and checks > 0


def test_engine_modes_never_import_scipy():
    """scipy is imported lazily, by the exact oracle alone: importing the
    package and the CLI and running the four Monte Carlo modes leave it out
    of sys.modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = (
        "import sys, torusvoter, torusvoter.harness as h, torusvoter.cli\n"
        "base = dict(r=2, T=0.5, replicas=2, seed=3)\n"
        "for mode, d, p in [('simulate', (4,), (0.3,)), ('couple', (4,), (0.3, 0.45)),\n"
        "                   ('couple', (4,), (0.3,)), ('sweep', (2, 3, 4), (0.3,)),\n"
        "                   ('ballgame', (6,), (0.3,))]:\n"
        "    h.run_experiment(h.ExperimentSpec(mode=mode, d=d, p=p, **base))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
