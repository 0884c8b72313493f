"""Smoke tests of the tools.  tools/output_digest.py, the per-job same-output
check: one labelled line per job, in the hash format, the --topology format
(with its mirrored and over-captured counts), the --work format (whose
points and above counts are checked on one job, whose dense count with lockstep tracing equals the count without, and whose
phase count shows the array solve of the crossing search) and the
--ledger format, each over a seed list too, whose count is checked on a crafted result; --census, a
line per job with a finding and a totals line, checked with a stub check,
a stub _dedup and stub results for the close cap ends; --census --baseline,
the jobs that differ from a baseline file, checked on stub records.
tools/bench_pairs.py: current bytecode in a checkout before each of its
runs, and with --trace, traced runs and each per-layer metric's medians."""

import dataclasses
import importlib.util
import itertools
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

_SIGN = r"[+-]\[n=(\d+)(?: [A-Z][A-Za-z]+=\d+)* mirrored=(\d+) over=\d+ warnings=\d+\]"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output_digest():
    return _tool("output_digest")


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


def test_output_digest_seed_lists(capsys, monkeypatch):
    # every digest mode takes a seed list: each line is led by its seed and
    # is the line that seed gives alone; a census of many seeds needs a baseline
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _output_digest()
    for mode in ([], ["--topology"], ["--work"], ["--ledger"]):
        assert digest.main(["corpus", "--jobs", "2", "--seed", "101,103", *mode]) == 0
        lines = capsys.readouterr().out.splitlines()
        alone = []
        for seed in ("101", "103"):
            assert digest.main(["corpus", "--jobs", "2", "--seed", seed, *mode]) == 0
            alone += [f"{seed} {line}" for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 4 and lines == alone, mode
    with pytest.raises(SystemExit):
        digest.main(["corpus", "--census", "--seed", "101-102"])


def test_output_digest_work_lines(capsys, monkeypatch):
    # --work counts through wrappers and puts the program's names back after;
    # every polish pass, the plant's own rooting included, counts with "+"
    # (a root-form job may polish nothing: its branch candidates are found
    # without polynomial roots)
    from dtlocus import (RegionSpec, TraceOptions, boundary, cli, continuation, plant, poly, run,
                         tracer)
    from dtlocus.boundary import BoundaryFunctions

    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _output_digest()
    before = (plant._log_kernel, continuation._log_kernel, continuation.correct, tracer.correct,
              poly._horner_triple, tracer._dlog_prime)

    assert digest.main(["corpus", "--jobs", "3", "--work"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    work = (r"([+-])\[kernel=(\d+) correct=(\d+) newton=(\d+) polish=(\d+) phase=(\d+)"
            r" curv=(\d+) points=(\d+) above=(\d+)\]")
    for i, line in enumerate(lines):
        assert re.fullmatch(rf"corpus\[{i}\] {work}( {work})?", line), line
    counts = [int(n) for line in lines for n in re.findall(r"=(\d+)", line)]
    assert sum(counts) > 0
    polish = [(sign, int(n)) for line in lines for sign, _, _, _, n, *_ in re.findall(work, line)]
    assert all(n == 0 for sign, n in polish if sign == "-")
    # points counts a pass's rows, mirror images left out; above those with K > ln kmax
    job = list(itertools.islice(sys.modules["workloads"].jobs("corpus", 101), 3))[2]
    res = run(cli.parse_input(job.doc), RegionSpec(job.sigma0, job.kmax),
              TraceOptions(negative_gains=job.negative_gains))
    for (*_, points, above), signed in zip(re.findall(work, lines[2]), (res, res.negative)):
        K = np.concatenate([t.array[:, 2] for t in signed.trajectories if not t.mirrored])
        assert (int(points), int(above)) == (len(K), int((K > signed.region.lnkmax).sum()))
    # curv counts each _dlog_prime call at a complex number and each element
    # of one at an array, per gain sign
    primed = Counter()
    dlog_prime = plant._dlog_prime
    with monkeypatch.context() as mp:
        mp.setattr(tracer, "_dlog_prime", lambda p, s: primed.update(
            {p.alpha > 0.0: getattr(s, "size", 1)}) or dlog_prime(p, s))
        res = run(cli.parse_input(job.doc), RegionSpec(job.sigma0, job.kmax),
                  TraceOptions(negative_gains=job.negative_gains))
    positive = res.plant.alpha > 0.0
    assert [int(curv) for *_, curv, _, _ in re.findall(work, lines[2])] == [
        primed[positive], primed[not positive]][:1 + job.negative_gains]
    assert primed[positive] > 0
    assert (plant._log_kernel, continuation._log_kernel, continuation.correct,
            tracer.correct, poly._horner_triple, tracer._dlog_prime) == before

    # the count starts before the input is parsed: a coefficient-form
    # plant's own rooting counts with the rest of its job, and is all the
    # polish a run does (breakpoints and branch candidates are eigenvalues
    # over the plant's roots)
    assert digest.main(["highorder", "--jobs", "1", "--work"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    job = next(sys.modules["workloads"].jobs("highorder", 101))
    calls = []
    horner = poly._horner_triple
    monkeypatch.setattr(poly, "_horner_triple", lambda *args: calls.append(None) or horner(*args))
    parsed = cli.parse_input(job.doc)
    at_parse = len(calls)
    run(parsed, RegionSpec(job.sigma0, job.kmax), TraceOptions(negative_gains=job.negative_gains))
    assert 0 < at_parse == len(calls)
    assert int(re.findall(work, line)[0][4]) == len(calls)

    # a dense job traces its crossing-seeded bulk in lockstep; each point of
    # a lockstep kernel call counts as one evaluation and each lockstep solve
    # as one correct call with its Newton iterations, so the line equals the
    # count of tracing every seed one at a time, but for curv: a lockstep
    # round takes dlog' at every live cursor, a trajectory traced alone once
    # per cursor, on the first step from it below the cap
    lockstep = (plant._log_kernel_many, continuation.correct_many, tracer.correct_many)
    batches, sizes = [], []
    batch = tracer._trace_batch
    monkeypatch.setattr(tracer, "_trace_batch", lambda *args: batches.append(None) or batch(*args))

    def recorded(p, s):
        sizes.append(getattr(s, "size", 1))
        return dlog_prime(p, s)

    with monkeypatch.context() as mp:
        mp.setattr(plant, "_dlog_prime", recorded)  # so that --work wraps the recorder
        mp.setattr(tracer, "_dlog_prime", recorded)
        assert digest.main(["dense", "--jobs", "1", "--work"]) == 0
    (batched,) = capsys.readouterr().out.splitlines()
    assert batches and max(sizes) > 1
    monkeypatch.setattr(tracer, "_BATCH_MIN", math.inf)
    assert digest.main(["dense", "--jobs", "1", "--work"]) == 0
    (alone,) = capsys.readouterr().out.splitlines()
    (*same, curv, points, above), = re.findall(work, batched)
    (*same_alone, curv_alone, points_alone, above_alone), = re.findall(work, alone)
    assert (same, points, above) == (same_alone, points_alone, above_alone)
    assert int(curv) == sum(sizes) > int(curv_alone) > 0
    assert len(batches) == 1
    assert (plant._log_kernel_many, continuation.correct_many, tracer.correct_many) == lockstep

    # phase counts each phi_slope call at a float and each element of one
    # at an array; the dense job's pieces are solved over arrays, and with
    # that solve off the line differs in phase alone
    phi_slope = BoundaryFunctions.phi_slope
    evaluated = []
    with monkeypatch.context() as mp:
        mp.setattr(BoundaryFunctions, "phi_slope", lambda bf, w: evaluated.append(
            w.size if isinstance(w, np.ndarray) else 0) or phi_slope(bf, w))
        assert digest.main(["dense", "--jobs", "1", "--work"]) == 0
    (arrays,) = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(boundary, "_ARRAY_LINES", math.inf)
    assert digest.main(["dense", "--jobs", "1", "--work"]) == 0
    (scalar,) = capsys.readouterr().out.splitlines()
    (*same, phase, curv, points, above), = re.findall(work, arrays)
    (*same_scalar, phase_scalar, curv_scalar, points_scalar, above_scalar), = re.findall(
        work, scalar)
    assert same == same_scalar
    assert (curv, points, above) == (curv_scalar, points_scalar, above_scalar)
    assert int(phase) > sum(evaluated) > 0 and int(phase_scalar) > 0
    assert BoundaryFunctions.phi_slope is phi_slope


def test_output_digest_ledger_lines(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _output_digest()
    assert digest.main(["corpus", "--jobs", "3", "--ledger"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    sign = r"[+-]\[gains=(\d+) mismatched=(\d+)\]"
    for i, line in enumerate(lines):
        match = re.fullmatch(rf"corpus\[{i}\] {sign}(?: {sign})?", line)
        assert match, line
        counts = [int(n) for n in match.groups() if n is not None]
        assert all(bad <= n for n, bad in zip(counts[::2], counts[1::2]))


def test_output_digest_census_lines(capsys, monkeypatch):
    # only jobs with a finding print a line, a totals line ends the output,
    # and tracer._dedup is put back after
    import dtlocus.cli
    import dtlocus.svgplot
    from dtlocus import tracer

    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _output_digest()
    dedup = tracer._dedup
    assert digest.main(["corpus", "--jobs", "3", "--census"]) == 0
    *lines, total = capsys.readouterr().out.splitlines()
    counts = r"warnings=\d+ step_failures=\d+ drops=\d+"
    assert re.fullmatch(rf"total jobs=3 failed=\d+ warning_jobs=\d+ {counts} ledger_jobs=\d+ "
                        r"close=\d+", total), total
    for line in lines:
        assert re.fullmatch(rf"corpus\[[0-2]\] failed=[01] {counts} ledger=\d+ close=\d+( \| .+)*",
                            line), line
    assert tracer._dedup is dedup

    # a finding of the check and the trajectories _dedup drops, per job
    class Checks:
        Malformed = ValueError

        @staticmethod
        def check_job(job, n_traj, json_text, csv_text, svg_text):
            return [f"stub finding of {n_traj} trajectories"]

    monkeypatch.setattr(tracer, "_dedup", lambda trajectories: trajectories[1:])
    census = digest.Census(Checks)
    census.install()
    job = list(itertools.islice(sys.modules["workloads"].jobs("corpus", 101), 2))[1]
    try:
        line = census.line(dtlocus, job)
    finally:
        census.uninstall()
    res = dtlocus.run(dtlocus.cli.parse_input(job.doc), dtlocus.RegionSpec(job.sigma0, job.kmax),
                      dtlocus.TraceOptions(negative_gains=job.negative_gains))
    n = len(res.trajectories) + len(res.negative.trajectories)  # after one drop per pass
    assert res.trajectories and res.negative.trajectories
    # each dropped trajectory leaves gain intervals off the ledger
    off = sum(digest.ledger_mismatches(r)[1] for r in (res, res.negative))
    assert off > 0
    assert line == (f"corpus[1] failed=1 warnings=0 step_failures=0 drops=2 ledger={off} "
                    f"close=0 | stub finding of {n} trajectories")
    assert census.total_line() == ("total jobs=1 failed=1 warning_jobs=0 warnings=0 "
                                   "step_failures=0 drops=2 ledger_jobs=1 close=0")
    assert tracer._dedup is not dedup  # the stub, put back by uninstall()

    # a job whose only finding is a ledger mismatch prints its line: a
    # trajectory lost after _dedup, with no warning
    class Clean(Checks):
        @staticmethod
        def check_job(job, n_traj, json_text, csv_text, svg_text):
            return []

    monkeypatch.setattr(tracer, "_dedup", dedup)
    run = dtlocus.run

    def lossy(*args):
        result = run(*args)
        return dataclasses.replace(result, trajectories=result.trajectories[1:])

    monkeypatch.setattr(dtlocus, "run", lossy)
    res = lossy(dtlocus.cli.parse_input(job.doc), dtlocus.RegionSpec(job.sigma0, job.kmax),
                dtlocus.TraceOptions(negative_gains=job.negative_gains))
    off = sum(digest.ledger_mismatches(r)[1] for r in (res, res.negative))
    assert off > 0 and res.warnings == () and res.negative.warnings == ()
    census = digest.Census(Clean)
    assert census.line(dtlocus, job) == (
        f"corpus[1] failed=0 warnings=0 step_failures=0 drops=0 ledger={off} close=0")
    assert census.total_line().endswith(" drops=0 ledger_jobs=1 close=0")


def test_output_digest_census_close_cap_ends(monkeypatch):
    # pairs of GainCap ends within 1e-4 in |dsigma| + |domega|, mirror
    # images included, a trajectory never paired with its own image; a job
    # whose only finding is close cap ends prints its line
    from types import SimpleNamespace

    from dtlocus import tracer

    digest = _output_digest()

    def traj(sigma, omega, mirrored=False, termination=tracer.GainCap()):
        return SimpleNamespace(array=np.array([(0.0, 0.0, -1.0), (sigma, omega, 0.0)]),
                               termination=termination, mirrored=mirrored)

    def with_images(*originals):
        out = []
        for t in originals:
            out.append(t)
            sigma, omega, _ = t.array[-1].tolist()
            if omega:
                out.append(traj(sigma, -omega, True, t.termination))
        return SimpleNamespace(trajectories=out, warnings=(), negative=None)

    res = with_images(
        traj(-1.0, 2.0), traj(-1.0 + 4e-5, 2.0 + 5e-5),  # close: a pair and its image
        traj(-3.0, 1e-5),                 # within 1e-4 of its own image only
        traj(-5.0, 1.0), traj(-5.0 + 6e-5, 1.0 + 6e-5),  # each within, the sum not
        traj(-7.0, 0.0), traj(-7.0, 0.0),  # two real ends on one point
        traj(2.0, 3.0, termination=tracer.LeftRegion(0)), traj(2.0, 3.0),  # one ends elsewhere
    )
    assert digest.close_cap_ends(res) == 3

    class Clean:
        Malformed = ValueError

        @staticmethod
        def check_job(job, n_traj, json_text, csv_text, svg_text):
            return []

    monkeypatch.syspath_prepend(str(ROOT / "locusbench"))
    import dtlocus.cli
    import workloads

    monkeypatch.setattr(dtlocus, "run", lambda *args: res)
    monkeypatch.setattr(digest, "ledger_mismatches", lambda r: (1, 0))
    monkeypatch.setattr(digest, "_outputs", lambda *args: {"json": ""})
    job = next(workloads.jobs("corpus", 101))
    census = digest.Census(Clean)
    assert census.line(dtlocus, job) == (
        "corpus[0] failed=0 warnings=0 step_failures=0 drops=0 ledger=0 close=3")
    assert census.total_line().endswith(" drops=0 ledger_jobs=0 close=3")


def test_output_digest_census_baseline_diff(tmp_path, capsys, monkeypatch):
    # only jobs that appear, clear or change print, seed by seed in job
    # order, then the totals of those seeds before and after; a seed the
    # baseline lacks counts as empty
    digest = _output_digest()

    def record(found, **total):
        return {"jobs": found, "total": total}

    before = {
        "101": record({"corpus[2]": "failed=0 warnings=1", "corpus[10]": "failed=1 | x",
                       "corpus[7]": "failed=0 ledger=1"}, jobs=20, failed=1, warnings=1),
        "102": record({"corpus[0]": "failed=0 close=2"}, jobs=20),
    }
    after = {
        "101": record({"corpus[10]": "failed=1 | y", "corpus[7]": "failed=0 ledger=1",
                       "corpus[9]": "failed=0 drops=1"}, jobs=20, failed=1, drops=1),
        "103": record({"corpus[4]": "failed=0 warnings=2"}, jobs=20, warnings=2),
    }
    zeros = "warning_jobs=0 warnings={} step_failures=0 drops={} ledger_jobs=0 close=0"
    assert digest.census_diff(before, after) == [
        "101 corpus[2] clears: failed=0 warnings=1",
        "101 corpus[9] appears: failed=0 drops=1",
        "101 corpus[10] changes: failed=1 | x -> failed=1 | y",
        "103 corpus[4] appears: failed=0 warnings=2",
        "total before: jobs=20 failed=1 " + zeros.format(1, 0),
        "total after: jobs=40 failed=1 " + zeros.format(2, 1),
    ]
    assert digest.census_diff(after, after)[:-2] == []

    # the command line: --update writes the records, a rerun diffs empty
    # (exit 0), a finding the file holds and the run lacks clears (exit 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    baseline = tmp_path / "census.json"
    args = ["corpus", "--jobs", "2", "--seed", "101-102", "--census", "--baseline", str(baseline)]
    assert digest.main(args + ["--update"]) == 0
    *_, total = capsys.readouterr().out.splitlines()
    assert total.startswith("total after: jobs=4 ")
    stored = json.loads(baseline.read_text())
    assert sorted(stored["corpus"]) == ["101", "102"]
    assert digest.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0][len("total before:"):] == lines[1][len("total after:"):]
    stored["corpus"]["102"]["jobs"]["corpus[1]"] = "failed=1 | stub"
    baseline.write_text(json.dumps(stored))
    assert digest.main(args) == 1
    assert capsys.readouterr().out.splitlines()[0] == "102 corpus[1] clears: failed=1 | stub"


def test_ledger_counts_a_missing_root():
    # P1 at sigma0 -2, kmax 1: one pole, one inward crossing at omega 0 (k
    # 2e^-2) and a double branch point at -1 (k 1/e); the traced count agrees
    # with the ledger at every gain, and drops one below it over the gains
    # from the branch point up once a departure is taken away
    import dataclasses

    from dtlocus import BranchOrigin, Plant, RegionSpec, run

    digest = _output_digest()
    res = run(Plant(1.0, 1.0, (), (0j,)), RegionSpec(-2.0, 1.0))
    assert digest.ledger_mismatches(res) == (3, 0)
    kept = [t for t in res.trajectories if not (isinstance(t.origin, BranchOrigin) and t.mirrored)]
    assert len(kept) == len(res.trajectories) - 1
    gains, bad = digest.ledger_mismatches(dataclasses.replace(res, trajectories=tuple(kept)))
    assert (gains, bad) == (3, 1)
    assert digest._over_captured(res) == 0


def test_bench_pairs_compiles_both_checkouts_first(tmp_path, monkeypatch, capsys):
    bench = _tool("bench_pairs")
    parent = tmp_path / "parent"
    (parent / "locusbench").mkdir(parents=True)
    (parent / "locusbench" / "run.py").write_text("")
    module = parent / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 1\n")

    # compileall writes bytecode even where imports may not
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench.compile_sources(parent, sys.executable)
    assert Path(importlib.util.cache_from_source(str(module))).is_file()

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = {"failed": 0, "attempted": 1, "correct": True,
               "metrics": {m["name"]: {"value": 1.0} for m in metrics}}
    events = []
    monkeypatch.setattr(bench, "compile_sources",
                        lambda checkout, python: events.append(("compile", checkout)))
    monkeypatch.setattr(bench, "run_once",
                        lambda checkout, *args: events.append(("run", checkout)) or (summary, set()))
    assert bench.main(["--parent", str(parent), "--workload", "corpus", "--seeds", "1-2"]) == 0
    # the parent runs first in the first pair and second in the next
    order = [parent, ROOT, ROOT, parent]
    assert events == [(kind, side) for side in order for kind in ("compile", "run")]
    assert "corpus, seeds 1-2, 2 pairs" in capsys.readouterr().out


def test_bench_pairs_trace_prints_per_layer_medians(tmp_path, monkeypatch, capsys):
    bench = _tool("bench_pairs")
    parent = tmp_path / "parent"
    (parent / "locusbench").mkdir(parents=True)
    (parent / "locusbench" / "run.py").write_text("")
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values = {parent: [2.0, 4.0, 3.0], ROOT: [1.0, 2.0, 6.0]}  # medians 3 and 2
    calls = []

    def run_once(checkout, command, workload, seed, seconds, trace):
        calls.append((checkout, seed, trace))
        value = values[checkout][seed - 1]
        return {"failed": 0, "attempted": 1, "correct": True,
                "metrics": {m["name"]: {"value": value} for m in layers}}, set()

    monkeypatch.setattr(bench, "compile_sources", lambda checkout, python: None)
    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--parent", str(parent), "--workload", "dense", "--seeds", "1-3",
                       "--trace"]) == 0
    # every run traced, the sides alternating as in untraced pairs
    assert calls == [(parent, 1, 1), (ROOT, 1, 1), (ROOT, 2, 1), (parent, 2, 1),
                     (parent, 3, 1), (ROOT, 3, 1)]
    out = capsys.readouterr().out
    assert "dense, seeds 1-3, 3 pairs, --seconds 30, traced" in out
    for m in layers:
        (row,) = [line for line in out.splitlines() if line.split()[:1] == [m["name"]]]
        assert row.split()[1:] == [m["unit"], "3", "2", "-33.3%"]
