"""Layer-by-layer benchmark of dtlocus on three workloads.

    python3 locusbench/run.py --workload corpus|highorder|dense --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
``src`` directory.  One client in one thread drives the public API in a
closed loop (the next job starts when the previous one returned): each job
is ``cli.parse_input`` -> ``tracer.run`` -> ``cli.result_to_json``, plus
``result_to_csv`` and ``svgplot.render_svg`` on ``dense``.  A run is a fixed
number of whole generator cycles, set by ``--seconds`` (see JOBS_PER_S), so
the jobs it attempts and fails depend on the seed alone.  Every output
is checked outside the timed section, in a child process, so the checker's
memory never counts in ``peak_rss_mb`` (see checks.py).  Job times are in
reference seconds, scaled by the machine's speed at the time (see RefClock).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs every job once untraced and once traced (alternating
which goes first) and reports the per-layer metrics from the traced pass, per
job, with ``trace_overhead_frac`` from the pair.  The last line of standard
output is one JSON object; the lines before it print every metric by name and unit.
A run record (and, when traced, the spans) is written to .locusbench-out/.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import itertools
import json
import multiprocessing
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".locusbench-out"

# Wall-time limit of one job.  A job over the limit is stopped and counted as
# failed, so a runaway draw cannot stall the run.  On a 2-vCPU VM the slowest
# jobs that return took at most 0.46 s (corpus), 0.87 s (highorder) and 6.4 s
# (dense) over some 17000, 6000 and 500 jobs, and the corpus runaways had not
# returned after 15 s.  Each limit is over twice those times, so which jobs
# fail does not hang on the machine's speed at the time.
JOB_LIMIT_S = {"corpus": 1.0, "highorder": 3.0, "dense": 60.0}
# Jobs per second of --seconds, untraced and traced: about the rate of a run,
# time-outs, checks and set-up samples included, on the VM of baseline.json.
# The job count of a run is fixed from --seconds and this rate, never from
# the clock, so two runs of one seed attempt the same jobs and fail the same
# ones.  On that VM a run takes about --seconds.
JOBS_PER_S = {"corpus": (28.0, 15.0), "highorder": (7.5, 3.9), "dense": (0.65, 0.3)}
# Tail percentile per workload: the highest level that keeps well over ten
# samples beyond it at the throughput in baseline.json.  A run with fewer
# than ten samples beyond it falls back to a lower level and says so.
TAIL_LEVEL = {"corpus": 95.0, "highorder": 90.0, "dense": 50.0}
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SAMPLES = 11
# The reference work (see RefClock) takes about REF_NOMINAL_S on the VM of
# baseline.json.
REF_NOMINAL_S = 0.0018
REF_EVERY_S = 0.25

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dtlocus
from dtlocus.cli import parse_input, result_to_json
plant = parse_input(b'{"alpha": 1, "delay": 1, "zeros": [], "poles": [[0, 0]]}')
result_to_json(dtlocus.run(plant, dtlocus.RegionSpec(-2.0, 1.0)))
print(time.perf_counter() - t0)
"""

# Taken from the untraced jobs of every run and shown with the end-to-end
# metrics too.  They are per_layer in BENCHMARK.json because they cannot carry
# a bound on every workload: the quality ratios read exactly 0 on dense, and
# time_exponent, a slope across random plants on corpus and highorder,
# spreads across seeds as much as 0.36 there.
RUN_WIDE = ("time_exponent", "failed_frac", "step_failure_frac", "warnings_per_locus")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


class Program:
    """The dtlocus modules, looked up at call time so wrappers apply."""

    def __init__(self):
        if not (SRC / "dtlocus" / "__init__.py").is_file():
            raise SystemExit(f"run.py: no program source under {SRC}; run from a checkout")
        sys.path.insert(0, str(SRC))
        import dtlocus.boundary
        import dtlocus.cli
        import dtlocus.svgplot
        import dtlocus.tracer

        if not Path(dtlocus.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"run.py: dtlocus was imported from {dtlocus.__file__}, not {SRC}")
        self.boundary, self.cli = dtlocus.boundary, dtlocus.cli
        self.svgplot, self.tracer = dtlocus.svgplot, dtlocus.tracer

    def job(self, job: workloads.Job):
        """One timed job: (result, {format: text}, start, end of tracer.run, end)."""
        t0 = perf_counter()
        plant = self.cli.parse_input(job.doc)
        region = self.boundary.RegionSpec(job.sigma0, job.kmax)
        result = self.tracer.run(plant, region, self.tracer.TraceOptions(negative_gains=job.negative_gains))
        t1 = perf_counter()
        texts = {"json": self.cli.result_to_json(result)}
        if "csv" in job.outputs:
            texts["csv"] = self.cli.result_to_csv(result)
        if "svg" in job.outputs:
            texts["svg"] = self.svgplot.render_svg(result)
        return result, texts, t0, t1, perf_counter()


class RefClock:
    """Machine speed, from fixed reference work timed around and during jobs.

    The shared VM the benchmark was tuned on switches between a fast and a
    slow state (about 1.7x apart) every few seconds, and stays in one for
    tens of seconds at times, longer than a run.  The reference work does the
    program's kinds of work without the program: complex arithmetic, a dict
    of tuples, small numpy calls.  The ratio of a job's time to its time moves
    far less than either.  So the reference work is timed just before and just
    after every job, and every REF_EVERY_S of CPU time during it (from a
    SIGPROF handler, its own time taken off the job's).  The job's time is
    scaled by REF_NOMINAL_S over the mean of those samples: reference
    seconds, the wall seconds the job takes when the reference work takes
    REF_NOMINAL_S.
    """

    def __init__(self):
        self.last = self.sample()
        self.inside: list[tuple[float, float]] = []  # (start, seconds) during the job
        signal.signal(signal.SIGPROF, self._on_prof)

    @staticmethod
    def sample() -> float:
        t0 = perf_counter()
        acc, table = 0j, {}
        for i in range(2000):
            z = complex(i % 13 - 6, i % 7 - 3)
            acc += cmath.exp(-0.01 * z) * (z * z + 1.5)
            table[i % 97, i % 89] = acc
        a = np.arange(200.0)
        for _ in range(100):
            a = np.sqrt(a * a + 1.0)
        return perf_counter() - t0

    def _on_prof(self, signum, frame):
        t0 = perf_counter()
        self.inside.append((t0, self.sample()))

    def start(self) -> None:
        self.inside = []
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> float:
        """Factor from wall seconds to reference seconds for the job since
        start()."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        before, self.last = self.last, self.sample()
        refs = [before, self.last] + [s for _, s in self.inside]
        return REF_NOMINAL_S / statistics.fmean(refs)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the reference samples taken in between."""
        return t1 - t0 - sum(s for at, s in self.inside if t0 <= at < t1)


def timed_job(program: Program, clock: RefClock, job, limit: float):
    """Run one job under the wall-time limit; (outcome, error text).

    The outcome is (result, texts, run s, job s, job wall s); the first two
    times are in reference seconds.
    """
    clock.start()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        outcome = program.job(job), None
    except JobTimeout:
        outcome = None, f"exceeded the {limit:g} s job limit"
    except Exception as e:  # a raising job fails; the run goes on
        where = traceback.extract_tb(e.__traceback__)[-1]
        outcome = None, f"raised {type(e).__name__}: {e} at {Path(where.filename).name}:{where.lineno}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        f = clock.stop()
    if outcome[0] is None:
        return outcome
    result, texts, t0, t1, t2 = outcome[0]
    job_s = clock.busy(t0, t2)
    return (result, texts, clock.busy(t0, t1) * f, job_s * f, job_s), None


def traced_pass(program: Program, clock: RefClock, rec: tracing.Recorder, job, limit: float):
    """The job once more with wrappers installed: (job seconds, dup_dropped),
    or None when it failed.  A failed pass leaves no trace in the recorder."""
    snap = rec.snapshot()
    calls = rec.calls("tracer.trace")
    rec.install()
    rec.job = job.index
    try:
        outcome, _ = timed_job(program, clock, job, 2.0 * limit)
    finally:
        rec.uninstall()
    if outcome is None:
        rec.restore(snap)
        return None
    rec.passes += 1
    unmirrored = sum(not t.mirrored for t in _all_trajectories(outcome[0]))
    return outcome[3], rec.calls("tracer.trace") - calls - unmirrored


class Checker:
    """Output checks in a child process forked before the first job.

    Outputs go to the child over a pipe and the caller waits for its answer,
    so checking never overlaps a timed job, and the parsed outputs never count
    in this process's peak memory.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=checks.serve, args=(child,), daemon=True)
        self.proc.start()
        child.close()

    def __call__(self, job, n_traj: int, texts: dict) -> tuple[list[str], str | None]:
        """(violations, malformed reason) of one job's output."""
        self.conn.send((job, n_traj, texts))
        kind, value = self.conn.recv()
        if kind == "error":
            raise SystemExit(f"run.py: output check of {job.label} raised {value}")
        return ([value], value) if kind == "malformed" else (value, None)

    def close(self) -> None:
        self.conn.send(None)
        self.proc.join()


class Session:
    """One run's program, checker and failure lists."""

    def __init__(self, program: Program, clock: RefClock, checker: Checker, limit: float, cycle: int):
        self.program, self.clock, self.checker = program, clock, checker
        self.limit, self.cycle = limit, cycle
        self.failures: list[tuple[str, str]] = []
        self.malformed: list[tuple[str, str]] = []
        self.pairs: list[tuple[float, float, int]] = []  # traced s, untraced s, dup_dropped

    def first_pass(self, job) -> dict | None:
        """Run and check one job; its summary, or None when it did not return."""
        outcome, error = timed_job(self.program, self.clock, job, self.limit)
        if outcome is None:
            self.failures.append((job.label, error))
            return None
        result, texts, run_s, job_s, wall_s = outcome
        summary = summarize(job, result, run_s, job_s, wall_s, self.cycle)
        found, bad = self.checker(job, summary["traj"], texts)
        if bad is not None:
            self.malformed.append((job.label, bad))
        if found:
            self.failures.append((job.label, "; ".join(found)))
        return summary

    def traced_job(self, rec: tracing.Recorder, job) -> dict | None:
        """The untraced first pass and a traced pass of one job, in alternating
        order.  The recorder keeps the traced pass only if both returned."""
        snap = rec.snapshot()
        traced_first = job.index % 2 == 1
        traced = traced_pass(self.program, self.clock, rec, job, self.limit) if traced_first else None
        summary = self.first_pass(job)
        if summary is None:
            rec.restore(snap)
            return None
        if not traced_first:
            traced = traced_pass(self.program, self.clock, rec, job, self.limit)
        if traced is not None:
            self.pairs.append((traced[0], summary["job_s"], traced[1]))
        return summary


def setup_sample(clock: RefClock) -> float:
    """Wall seconds of importing dtlocus plus a first tiny locus, in a fresh
    interpreter.  Not scaled: reference work timed next to a process start,
    in this process or in the fresh one, reads too unevenly to scale by."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: set-up run failed:\n{proc.stderr}")
    clock.last = clock.sample()  # the next job's "before" sample
    return float(proc.stdout.strip().splitlines()[-1])


def _all_trajectories(result):
    neg = result.negative.trajectories if result.negative is not None else ()
    return result.trajectories + neg


def summarize(job, result, run_s: float, job_s: float, wall_s: float, cycle: int) -> dict:
    trajs = _all_trajectories(result)
    terms = Counter(type(t.termination).__name__ for t in trajs)
    warns = len(result.warnings) + (len(result.negative.warnings) if result.negative else 0)
    return {
        "label": job.label, "cycle": job.index // cycle, "run_s": run_s, "job_s": job_s, "wall_s": wall_s,
        "traj": len(trajs),
        "terminations": terms,
        "step_failures": terms.get("StepFailure", 0), "warnings": warns,
    }


def tail(values: list[float], level: float) -> tuple[float, float, int]:
    """(value, level, samples beyond) at the level, or at the next lower
    level that keeps at least ten samples beyond it."""
    arr = np.asarray(values)
    for lv in [level] + [x for x in TAIL_LEVELS if x < level]:
        v = float(np.percentile(arr, lv))
        beyond = int((arr > v).sum())
        if beyond >= 10:
            break
    return v, lv, beyond


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ln(y) against ln(x)."""
    if len(set(xs)) < 2:
        raise SystemExit("run.py: time_exponent needs jobs of two trajectory counts; run longer")
    lx, ly = np.log(xs), np.log(ys)
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    program = Program()
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = RefClock()
    rec = tracing.Recorder() if args.trace else None
    missing = tracing.missing_targets() if rec is not None else []
    cycle = workloads.cycle_length(args.workload)

    n_cycles = max(1, round(args.seconds * JOBS_PER_S[args.workload][args.trace] / cycle))
    consumed = list(itertools.islice(workloads.jobs(args.workload, args.seed), n_cycles * cycle))
    done: list[dict] = []        # jobs that returned, checked or not
    session = Session(program, clock, Checker(), JOB_LIMIT_S[args.workload], cycle)
    setup: list[float] = []  # spread over the run, so they meet what it meets
    gc.collect()
    start = perf_counter()
    for c in range(n_cycles):
        if rec is None and len(setup) * n_cycles <= c * SETUP_SAMPLES:
            setup.append(setup_sample(clock))
        for job in consumed[c * cycle:(c + 1) * cycle]:
            summary = session.traced_job(rec, job) if rec is not None else session.first_pass(job)
            if summary is not None:
                done.append(summary)
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while rec is None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(clock))
    session.checker.close()
    failures, malformed = session.failures, session.malformed

    if not done:
        print(f"run.py: no job of {len(consumed)} returned; first failure: {failures[0]}", file=sys.stderr)
        return 1

    attempted, n_failed = len(consumed), len({label for label, _ in failures})
    fit = [d for d in done if d["traj"] > 0]
    run_wide = {  # keys as in RUN_WIDE
        "time_exponent": slope([d["traj"] for d in fit], [d["run_s"] for d in fit]),
        "failed_frac": n_failed / attempted,
        "step_failure_frac": sum(d["step_failures"] for d in done) / max(1, sum(d["traj"] for d in done)),
        "warnings_per_locus": sum(d["warnings"] for d in done) / len(done),
    }
    job_s = [d["job_s"] for d in done]
    tail_v, tail_lv, tail_beyond = tail(job_s, TAIL_LEVEL[args.workload])
    by_cycle: dict[int, list[dict]] = {}
    for d in done:
        by_cycle.setdefault(d["cycle"], []).append(d)
    cycles = list(by_cycle.values())
    most = max(d["traj"] for d in done)
    biggest = [d for d in done if d["traj"] == most]
    biggest_s = statistics.median(d["job_s"] for d in biggest)
    terminations = sum((d["terminations"] for d in done), Counter())

    if rec is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "locus_s.p50": statistics.median(job_s),
            "locus_s.tail": tail_v,
            "loci_per_s": statistics.median(len(c) / sum(d["job_s"] for d in c) for c in cycles),
            "traj_per_s": statistics.median(sum(d["traj"] for d in c) / sum(d["job_s"] for d in c)
                                            for c in cycles),
            "peak_rss_mb": peak_rss_mb,
        }
        shown = {**metrics, **run_wide}
        units = {**e2e_units, **{k: layer_units[k] for k in RUN_WIDE}}
    else:
        metrics = layer_metrics(rec, session.pairs, run_wide)
        shown, units = metrics, layer_units
    if set(metrics) != set(e2e_units if rec is None else layer_units):
        raise SystemExit("run.py: computed metrics do not match BENCHMARK.json")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "elapsed_s": elapsed, "attempted": attempted, "returned": len(done), "failed": n_failed,
        "inputs_sha256": workloads.digest(consumed),
        "tail": {"level": tail_lv, "samples": len(job_s), "beyond": tail_beyond},
        "largest_locus": {"jobs": [d["label"] for d in biggest], "trajectories": most,
                          "median_job_s": biggest_s},
        "terminations": dict(sorted(terminations.items())),
        "setup_samples_s": setup, "locus_wall_s_p50": statistics.median(d["wall_s"] for d in done),
        "missing_targets": missing,
        "jobs": [{k: d[k] for k in ("label", "traj", "run_s", "job_s", "wall_s")} for d in done],
        "failures": [{"job": label, "reason": reason} for label, reason in failures],
        "malformed": [{"job": label, "reason": reason} for label, reason in malformed],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if rec is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for span in rec.spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs in {elapsed:.1f} s, "
          f"{len(done)} returned, {n_failed} failed; inputs sha256 {record['inputs_sha256'][:16]}")
    for label, reason in failures[:20]:
        print(f"#   FAILED {label}: {reason}")
    if len(failures) > 20:
        print(f"#   ... {len(failures) - 20} more in {OUT.name}/{stem}.json")
    print(f"# largest locus {biggest[0]['label']}: {most} trajectories, median {biggest_s:.4f} s "
          f"over the {len(biggest)} jobs of that size")
    print(f"# terminations {dict(sorted(terminations.items()))}")
    print(f"# locus_s.tail is p{tail_lv:g} of {len(job_s)} samples, {tail_beyond} beyond it")
    print(f"# job times are reference seconds; locus p50 is {record['locus_wall_s_p50']:.6g} wall seconds")
    if missing:
        print(f"# missing public names (read as zero): {', '.join(missing)}")
    for k, v in shown.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": not malformed, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(rec: tracing.Recorder, pairs, run_wide) -> dict:
    jobs = max(1, rec.passes)
    per = lambda v: v / jobs
    correct_calls = rec.calls("continuation.correct")
    step_calls = rec.calls("continuation.step_update")
    return {
        "tracer.assemble.self_s": per(rec.self_seconds("tracer.run")),
        "tracer.dup_dropped": per(sum(p[2] for p in pairs)),
        "tracer.trace.calls": per(rec.calls("tracer.trace")),
        "tracer.trace.self_s": per(rec.self_seconds("tracer.trace")),
        "tracer.branch_respawns": per(rec.counts["tracer.branch_respawns"]),
        "tracer.seed_points.s": per(rec.seconds("tracer.seed_points")),
        "continuation.correct.calls": per(correct_calls),
        "continuation.correct.s": per(rec.seconds("continuation.correct")),
        "continuation.newton_iters": per(rec.counts["continuation.newton_iters"]),
        "continuation.correct.converged_frac":
            rec.counts["continuation.correct.converged"] / correct_calls if correct_calls else 0.0,
        "continuation.step_update.accept_frac":
            rec.counts["continuation.step_update.accepted"] / step_calls if step_calls else 0.0,
        "continuation.solve3.calls": per(rec.calls("continuation.solve3")),
        "plant.log_eval.calls": per(rec.calls("plant.log_eval")),
        "plant.log_eval.s": per(rec.seconds("plant.log_eval")),
        "poly.complex_roots.s": per(rec.seconds("poly.complex_roots")),
        "poly.nonneg_real_roots.s": per(rec.seconds("poly.nonneg_real_roots")),
        "poly.mul.calls": per(rec.calls("poly.mul")),
        "boundary.boundary_functions.s": per(rec.seconds("boundary.boundary_functions")),
        "branch.branch_points.s": per(rec.seconds("branch.branch_points")),
        "boundary.magnitude_intervals.s": per(rec.seconds("boundary.magnitude_intervals")),
        "boundary.boundary_crossings.self_s": per(rec.self_seconds("boundary.boundary_crossings")),
        "boundary.phi.calls": per(rec.calls("boundary.phi")),
        "boundary.K.calls": per(rec.calls("boundary.K")),
        "boundary.crossings": per(rec.counts["boundary.crossings"]),
        "cli.parse_input.s": per(rec.seconds("cli.parse_input")),
        "cli.result_to_json.s": per(rec.seconds("cli.result_to_json")),
        "cli.result_to_csv.s": per(rec.seconds("cli.result_to_csv")),
        "cli.json_bytes": per(rec.counts["cli.json_bytes"]),
        "svgplot.render_svg.s": per(rec.seconds("svgplot.render_svg")),
        "svgplot.svg_bytes": per(rec.counts["svgplot.svg_bytes"]),
        "trace_overhead_frac": sum(p[0] for p in pairs) / sum(p[1] for p in pairs) - 1.0 if pairs else 0.0,
        **run_wide,
    }


if __name__ == "__main__":
    sys.exit(main())
