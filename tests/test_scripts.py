"""The scripts in scripts/ run end to end, each in a fresh interpreter, and
write what they say they write."""

import csv
import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def _launch(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def _run(name, *args, cwd):
    proc = _launch(name, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_dominance_report_writes_survival_csv(tmp_path):
    out = tmp_path / "report.csv"
    stdout = _run("dominance_report.py", "--d", "6", "--replicas", "20",
                  "--out", str(out), cwd=tmp_path)
    assert f"wrote {out}" in stdout
    rows = _read_csv(out)
    assert list(rows[0]) == ["approach", "M", "survival", "stderr", "replicas"]
    by_name = {}
    for row in rows:
        by_name.setdefault(row["approach"], []).append(float(row["survival"]))
        assert row["replicas"] == "20"
    assert list(by_name) == ["E_T", "C_hat", "C_bar", "C_tilde"]
    for survival in by_name.values():
        assert all(0.0 <= s <= 1.0 for s in survival)
        assert survival == sorted(survival, reverse=True)  # over increasing M


def test_fluid_sweep_writes_rows(tmp_path):
    out = tmp_path / "sweep"
    stdout = _run("fluid_sweep.py", "--d", "4,5,6", "--replicas", "3",
                  "--out", str(out), cwd=tmp_path)
    assert stdout.count("median sup deviation") == 3
    rows = _read_csv(out / "rows.csv")
    assert [(row["mode"], row["d"], row["replica"]) for row in rows] == [
        ("sweep", str(d), str(i)) for d in (4, 5, 6) for i in range(3)]
    assert all(0.0 <= float(row["frac_ones"]) <= 1.0 for row in rows)
    assert (out / "summary.json").exists()


def test_phase_portrait_prints_each_density(tmp_path):
    """phase_portrait writes no file: its table goes to stdout."""
    lines = _run("phase_portrait.py", "--d", "5", "--replicas", "2",
                 cwd=tmp_path).splitlines()
    sims = [line.split() for line in lines if " sim " in line]
    assert [words[0] for words in sims] == ["p=0.20", "p=0.35", "p=0.50",
                                            "p=0.65", "p=0.80"]
    for words in sims:
        values = [float(v) for v in words[2:]]
        assert len(values) == 9 and all(0.0 <= v <= 1.0 for v in values)


def test_phase_portrait_refuses_non_finite_horizon(tmp_path):
    proc = _launch("phase_portrait.py", "--d", "4", "--replicas", "1", "--T", "nan",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert "finite and positive" in proc.stderr
