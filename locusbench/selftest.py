"""Self-test of the benchmark at reduced size.

    python3 locusbench/selftest.py

Checks that the generator is deterministic, that the output check flags a
point moved off the locus and a locus traced from wrongly found roots, and
that a one-second run of every workload prints every end-to-end metric
(untraced) and every per-layer metric (traced) by name with its
BENCHMARK.json unit, and that two runs of one seed attempt and fail the same
number of jobs.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(workload: str, seed: int, n: int = 60) -> list[workloads.Job]:
    return list(itertools.islice(workloads.jobs(workload, seed), n))


def check_generator() -> None:
    for w in workloads.WORKLOADS:
        a, b = first(w, 3), first(w, 3)
        if [j.doc for j in a] != [j.doc for j in b] or workloads.digest(a) != workloads.digest(b):
            raise SystemExit(f"selftest: {w} inputs differ between two draws of seed 3")
        if workloads.digest(a) == workloads.digest(first(w, 4)):
            raise SystemExit(f"selftest: {w} seeds 3 and 4 give the same inputs")
    print("ok   generator is deterministic per seed")


def check_checker() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import dtlocus.plant
    from dtlocus import RegionSpec, TraceOptions, run
    from dtlocus.cli import parse_input, result_to_json

    job = workloads.Job(0, "demo", workloads.DEMO_DOC, -3.5, 5.0, True, ("json",))

    def locus():
        result = run(parse_input(job.doc), RegionSpec(job.sigma0, job.kmax), TraceOptions(negative_gains=True))
        return len(result.trajectories) + len(result.negative.trajectories), result_to_json(result)

    n, text = locus()
    if checks.check_job(job, n, text, None, None):
        raise SystemExit("selftest: the demo locus fails the output check")
    doc = json.loads(text)
    doc["trajectories"][0]["points"][-1][1] += 1e-3
    if not checks.check_job(job, n, json.dumps(doc), None, None):
        raise SystemExit("selftest: a point moved off the locus passes the output check")
    try:
        checks.check_job(job, n + 1, text, None, None)
    except checks.Malformed:
        pass
    else:
        raise SystemExit("selftest: a trajectory count mismatch is not reported as malformed")

    # A root finder that is off by 1e-3: the program traces a locus that agrees
    # with its own wrong roots, which the check must still reject.
    exact = dtlocus.plant.complex_roots
    dtlocus.plant.complex_roots = lambda p, *a, **kw: [
        dataclasses.replace(r, value=r.value + 1e-3) for r in exact(p, *a, **kw)]
    try:
        n, text = locus()
    finally:
        dtlocus.plant.complex_roots = exact
    if not checks.check_job(job, n, text, None, None):
        raise SystemExit("selftest: a locus of wrongly found roots passes the output check")
    print("ok   output check accepts the demo locus and flags a moved point and wrong roots")


def check_run(workload: str, trace: int, seed: int = 1) -> tuple[int, int]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"] or last["attempted"] < 1:
        raise SystemExit(f"selftest: bad result line {lines[-1]}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = last["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise SystemExit(f"selftest: {workload} trace={trace} lacks {m['name']} [{m['unit']}]")
        if not any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines):
            raise SystemExit(f"selftest: {workload} trace={trace} does not print {m['name']} with its unit")
    if len(last["metrics"]) != len(wanted):
        raise SystemExit(f"selftest: {workload} trace={trace} prints metrics beyond BENCHMARK.json")
    print(f"ok   {workload} trace={trace}: {len(wanted)} metrics, {last['attempted']} jobs, "
          f"{last['failed']} failed, correct={last['correct']}")
    return last["attempted"], last["failed"]


def main() -> int:
    check_generator()
    check_checker()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    # Seed 3 starts with a draw that runs into the job limit.
    if check_run("corpus", 0, 3) != check_run("corpus", 0, 3):
        raise SystemExit("selftest: two corpus runs of seed 3 differ in jobs attempted or failed")
    print("ok   two runs of one seed attempt and fail the same jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
