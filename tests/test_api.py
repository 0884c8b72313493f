"""Public surface: every exported name resolves, and the module entry point runs."""

import os
import subprocess
import sys
from pathlib import Path

import dtlocus

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_resolve():
    assert len(set(dtlocus.__all__)) == len(dtlocus.__all__)
    missing = [name for name in dtlocus.__all__ if not hasattr(dtlocus, name)]
    assert missing == []


def test_module_entry_point_help():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dtlocus", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dtlocus")
