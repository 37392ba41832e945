import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the gap tables, computed before the demo shared the library's
# gap-grid builder; any change to a grid or a ratio moves it
GAP_REPORTS_DIGEST = "a6f77c10d90a3af52e35a574985dfff27f9bf4735c0d209985f8f8139899560d"


def test_gap_reports_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "gap_reports.py")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "N= 8: max ratio    6/5 (1.2000)" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GAP_REPORTS_DIGEST


WALKTHROUGH_DIGEST = "8446e9da7594d9945022b07ceee0c45e744e74cfa1ee75b32b48a79fd9529f08"


def test_protocol_walkthrough_output_pinned():
    # the walkthrough prints caches, queries, broadcasts and a full
    # transcript of fixed-seed runs, so its stdout pins both schemes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "protocol_walkthrough.py")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WALKTHROUGH_DIGEST


# the audit prints every exact and Monte Carlo report of fixed instances
# and seeds, and no timing, so its stdout pins the verdicts and TV values
PRIVACY_AUDIT_DIGEST = "8176e10120d8b733011773c6a6f86d5fe67653fce1cad279a74d98c6dfc4c1d4"


def test_privacy_audit_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "privacy_audit.py")],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    sections = proc.stdout.split("\n\n")
    assert len(sections) == 3
    verdicts = [[line for line in s.splitlines() if "verdict=" in line] for s in sections]
    exact, baseline, mc = verdicts
    assert len(exact) == 14 and len(baseline) == 3 and len(mc) == 6
    assert all("verdict=PASS" in line for line in exact + mc)
    assert all("verdict=FAIL" in line and "witness=" in line for line in baseline)
    assert "K=3" in exact[-1] and "coalition={2,3}" in exact[-1]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PRIVACY_AUDIT_DIGEST


def test_mc_false_alarms_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "mc_false_alarms.py"), "--seeds", "1"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith(("| private", "| baseline"))]
    assert [row.split(" | ")[1] for row in rows] == ["300", "1,000", "3,000", "10,000", "50", "200"]
    assert all("| 1/1 (100.0%) | 6/6 |" in row for row in rows[4:])
