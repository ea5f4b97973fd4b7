"""The one-shot lint runner: the repo passes every AST lint in one go."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_lint_all_passes_on_the_repo():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_all.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "check_bare_counters: ok" in proc.stdout
    assert "check_observability: ok" in proc.stdout
    assert "check_hot_reads: ok" in proc.stdout
