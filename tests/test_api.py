"""Public surface: every exported name resolves, the module entry point runs,
and the benchmark harness finds every function it times."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import dtlocus

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def test_benchmark_harness_finds_every_target(monkeypatch):
    # locusbench times public dtlocus functions by name and reads a missing
    # one as zero, so a deleted or renamed name would blank its metrics.
    # The 3x3 solve went with the pseudo-arclength corrector, the
    # breakpoint polynomials' root finder with the breakpoints in root form,
    # and the polynomial product with the last polynomial arithmetic; their
    # targets stay listed in locusbench until the benchmark is next changed.
    spec = importlib.util.spec_from_file_location("locusbench_tracing",
                                                  ROOT / "locusbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.missing_targets() == [
        "poly.nonneg_real_roots", "continuation.solve3", "poly.mul"]
