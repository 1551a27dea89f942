import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_probe(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "probe_formula_gap.py"), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_probe_leaves_the_formula_blank_beyond_the_guard():
    proc = run_probe("--m", "4", "--n", "4", "--g-list", "0,20")  # guard is g <= 3
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[2:]}
    assert rows["0"][:4] == ["0", "8", "8", "8"]
    assert rows["20"][:4] == ["20", "23", "inf", "24"]  # g, term, oracle, best block


def test_probe_rejects_a_bad_g_list():
    proc = run_probe("--m", "4", "--n", "4", "--g-list", "x")
    assert proc.returncode != 0
    assert "error: --g-list 'x' is not a comma-separated list of integers" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
