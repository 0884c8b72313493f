"""Smoke test of tools/output_digest.py, the per-job same-output check: one
labelled line per job, in the hash format, the --topology format (with its
mirrored count) and the --work format."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SIGN = r"[+-]\[n=(\d+)(?: [A-Z][A-Za-z]+=\d+)* mirrored=(\d+) warnings=\d+\]"


def _output_digest():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_lines(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src and locusbench
    digest = _output_digest()

    assert digest.main(["corpus", "--jobs", "3", "--topology"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        match = re.fullmatch(rf"corpus\[{i}\] {_SIGN}(?: {_SIGN})?", line)
        assert match, line
        counts = [int(n) for n in match.groups() if n is not None]
        for n, mirrored in zip(counts[::2], counts[1::2]):
            assert 2 * mirrored <= n  # each mirrored trajectory has its original

    assert digest.main(["dense", "--jobs", "1"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"dense\[0\] sigma0=\S+ kmax=\S+ json=[0-9a-f]{64}"
                        r"( (csv|svg)=[0-9a-f]{64})*", line), line


def test_output_digest_work_lines(capsys, monkeypatch):
    # --work counts through wrappers and puts the program's names back after
    from dtlocus import continuation, plant, tracer

    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _output_digest()
    before = (plant._log_kernel, continuation._log_kernel, continuation.correct, tracer.correct)

    assert digest.main(["corpus", "--jobs", "3", "--work"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    work = r"[+-]\[kernel=(\d+) correct=(\d+) newton=(\d+)\]"
    for i, line in enumerate(lines):
        assert re.fullmatch(rf"corpus\[{i}\] {work}( {work})?", line), line
    counts = [int(n) for line in lines for n in re.findall(r"=(\d+)", line)]
    assert sum(counts) > 0
    assert (plant._log_kernel, continuation._log_kernel, continuation.correct,
            tracer.correct) == before
