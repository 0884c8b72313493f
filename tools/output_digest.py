"""One digest line per job of a benchmark workload, for same-output checks.

    python3 tools/output_digest.py corpus|highorder|dense [--seed SEEDS] [--jobs N]
        [--src DIR] [--topology | --work | --ledger | --census [--baseline FILE [--update]]]

Each job runs as the benchmark runs it (``cli.parse_input`` ->
``tracer.run`` -> ``cli.result_to_json``, plus ``result_to_csv`` and
``svgplot.render_svg`` when the job asks for them), with no timing and no
time limit.  A job that returns prints its label and the sha256 of each
output text; a job that raises prints its label, the exception type and its
message.  The jobs come from ``locusbench/workloads.py`` of this checkout;
the program comes from ``--src`` (default: this checkout's ``src``).
``--seed`` takes one seed or a list of seeds and ranges (``101-102,201``);
given more than one, the jobs of each seed run in turn and each line is led
by its seed.  A census without ``--baseline`` takes one seed.

With ``--topology`` a job that returns prints, instead of hashes, one line
per gain sign: the trajectory count, the count of each termination type,
the count of mirrored trajectories, the count of active branch points with
more arrivals than their multiplicity (``over``) and the warning count.
Diffing these shows that a change which moves points keeps the structure of
every locus; a real-axis trajectory that drifts off the axis and is mirrored
into a duplicate shows up in ``mirrored``, a branch point that captures
trajectories it should not in ``over``.

With ``--ledger`` a job that returns prints, instead of hashes, one line per
gain sign: ``gains``, the number of gain intervals between consecutive event
gains below the cap, and ``mismatched``, how many of them hold a traced
count that differs from the crossing ledger.  The event gains are the start
and end gains of every trajectory and the gains of the boundary crossings.
The traced count at a gain is the number of trajectories alive there,
mirrored ones included; a pole trajectory is alive from gain 0, a branch
departure from its branch point's gain, and a region exit ends at the gain
of the outward crossing it names.  The ledger is the number of plant poles
with Re p > sigma0, plus the inward crossings below the gain, minus the
outward ones, a crossing at omega > 0 counted twice (its mirror image
crosses too).
Roots enter and leave the window only across Re s = sigma0, so on a correct
locus the two counts agree at every gain.

With ``--work`` a job that returns prints, instead of hashes, one line per
gain sign: the plant kernel evaluations (``plant._log_kernel``), the
``continuation.correct`` calls, their Newton iterations, the Horner
passes of the root polish (``poly._horner_triple``; only the rooting of a
plant given by coefficients polishes, since breakpoints and branch
candidates are eigenvalues over the plant's roots) and the phase
evaluations of the boundary crossing search (``phase``: each
``BoundaryFunctions.phi_slope`` call at a float, and each element of one
at an array or of a ``phi_slope_many`` call, where a checkout still has
that array twin), then the trajectory rows the pass emits, mirror images
left out (``points``), and those of them above the gain cap, K > ln kmax
(``above``).  The lockstep tracer's
work counts alike: each point of a ``plant._log_kernel_many`` call is one
kernel evaluation, and each solve of a ``continuation.correct_many`` call
one ``correct`` call with its Newton iterations.  They are counted by
wrapping those names in every dtlocus module that holds them, where the
program looks them up, as ``locusbench/tracing.py`` does; the sign-free
set-up both passes share counts with the positive one, and so does every
polish pass, which has no plant to tell the sign by.  The count starts
before the job's input is parsed, so it holds the rooting of a plant given
by coefficients.  Diffing these shows
that a change which should only save time does the same work.

With ``--census`` only the jobs with a finding print a line: the findings
of the benchmark's own output check (``locusbench/checks.py``,
``check_job``), or the exception a job raised, then the warning count, the
``StepFailure`` count, the trajectories ``tracer._dedup`` dropped
(``drops``, counted by wrapping that name as ``--work`` wraps its names),
the gain intervals off the crossing ledger (``ledger``, the
``mismatched`` of ``--ledger`` summed over both gain signs) and the close
cap ends (``close``: pairs of ``GainCap`` end points within 1e-4 in
|dsigma| + |domega| of each other, per gain sign, mirror images included,
a trajectory never paired with its own mirror image).  A job whose only
finding is a ledger mismatch or close cap ends prints a line too, so a
pass that loses a root without a warning, or ends two trajectories on one
root, shows.  A job fails when it raises or its check finds something, as
it does in the benchmark.  A totals line ends the output; its
``ledger_jobs`` counts the jobs with a ledger mismatch, its ``close`` the
close pairs of all jobs.

With ``--census --baseline FILE`` the census runs over every seed of
``--seed``, which then takes a list of seeds and ranges (``101-140,201-230``),
and is compared with the records FILE holds for the workload and those
seeds.  Only the jobs that differ print: ``SEED LABEL appears: FIELDS`` for
a job with findings that had none, ``SEED LABEL clears: FIELDS`` for one
whose findings are gone (FIELDS as recorded), ``SEED LABEL changes: OLD ->
NEW`` for one whose fields differ, then ``total before: ...`` and ``total
after: ...`` over those seeds.  A seed missing from FILE counts as one
with no findings and zero totals.  The exit status is 1 when a job
differs, else 0.  With ``--update`` the run's records replace those of its
seeds in FILE (created if missing); the records of other workloads and
seeds stay.  The committed ``CENSUS.json`` holds corpus and highorder seeds
101-140 and 201-230 and dense seeds 101-103.  Regenerate it when a change
moves findings on purpose, and quote the diff:

    python3 tools/output_digest.py corpus --census --seed 101-140,201-230 \
        --baseline CENSUS.json --update

Digest two commits and diff the files to show a change keeps every output
byte (or, with ``--topology``, every structure) and every failure the same:

    python3 tools/output_digest.py corpus --seed 101-102 --src ../old/src > old.txt
    python3 tools/output_digest.py corpus --seed 101-102 > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# whole generator cycles: corpus 120 x 7, highorder 20 x 11, dense 4 x 5
DEFAULT_JOBS = {"corpus": 840, "highorder": 220, "dense": 20}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _over_captured(res) -> int:
    """Active branch points with more arrivals than their multiplicity."""
    arrivals = Counter(t.termination.index for t in res.trajectories
                       if type(t.termination).__name__ == "ReachedBranch")
    return sum(bp.active and arrivals[bi] > bp.multiplicity
               for bi, bp in enumerate(res.branch_points))


def topology(result) -> str:
    """Trajectory count, termination counts, mirrored count, over-captured
    branch points and warning count per gain sign."""
    parts = []
    for sign, res in (("+", result), ("-", result.negative)):
        if res is None:
            continue
        ends = Counter(type(t.termination).__name__ for t in res.trajectories)
        fields = [f"n={len(res.trajectories)}"]
        fields += [f"{name}={n}" for name, n in sorted(ends.items())]
        fields.append(f"mirrored={sum(t.mirrored for t in res.trajectories)}")
        fields.append(f"over={_over_captured(res)}")
        fields.append(f"warnings={len(res.warnings)}")
        parts.append(f"{sign}[{' '.join(fields)}]")
    return " ".join(parts)


_AXIS_TOL = 1e-9


def _end_rows(t) -> tuple[list[float], list[float]]:
    """The first and last (sigma, omega, K) row of a trajectory's array."""
    return t.array[0].tolist(), t.array[-1].tolist()


def _alive_span(res, t) -> tuple[float, float]:
    """(start gain, end gain) of one trajectory for the ledger."""
    first, last = _end_rows(t)
    kind, end = type(t.termination).__name__, last[2]
    if kind == "LeftRegion":
        end = res.crossings.outward[t.termination.matched].Kval
    origin = type(t.origin).__name__
    if origin == "PoleOrigin":
        return -math.inf, end
    if origin == "BranchOrigin":
        return res.branch_points[t.origin.index].Kval, end
    return first[2], end


def ledger_mismatches(res) -> tuple[int, int]:
    """(gain intervals below the cap, intervals whose traced count differs
    from the crossing ledger) for one gain sign, by one sweep over the
    event gains of traced count minus ledger."""
    lnkmax = res.region.lnkmax
    change: Counter = Counter()
    for a, b in (_alive_span(res, t) for t in res.trajectories):
        if a < b:
            change[a] += 1
            change[b] -= 1
    for c in res.crossings.inward:
        change[c.Kval] -= 2 if c.omega > _AXIS_TOL else 1
    for c in res.crossings.outward:
        change[c.Kval] += 2 if c.omega > _AXIS_TOL else 1
    diff = change[-math.inf] - sum(p.real > res.region.sigma0 for p in res.plant.poles)
    events = sorted(K for K in change if -math.inf < K < lnkmax)
    mismatched = int(diff != 0)
    for K in events:
        diff += change[K]
        mismatched += diff != 0
    return len(events) + 1, mismatched


_CLOSE_TOL = 1e-4


def close_cap_ends(res) -> int:
    """Pairs of GainCap end points within _CLOSE_TOL in |dsigma| + |domega|
    for one gain sign, mirror images included.  A trajectory is not paired
    with its own mirror image, which run places right after it."""
    ends = []
    owner = -1
    for t in res.trajectories:
        owner += not t.mirrored
        if type(t.termination).__name__ == "GainCap":
            sigma, omega, _ = _end_rows(t)[1]
            ends.append((sigma, omega, owner))
    ends.sort()  # by sigma, so each end's partners follow it within _CLOSE_TOL
    pairs = 0
    for i, (sigma, omega, owner) in enumerate(ends):
        j = i + 1
        while j < len(ends) and ends[j][0] - sigma <= _CLOSE_TOL:
            s, w, o = ends[j]
            pairs += o != owner and s - sigma + abs(w - omega) <= _CLOSE_TOL
            j += 1
    return pairs


def ledger(result) -> str:
    """Gain intervals and ledger mismatches per gain sign."""
    parts = []
    for sign, res in (("+", result), ("-", result.negative)):
        if res is not None:
            n, bad = ledger_mismatches(res)
            parts.append(f"{sign}[gains={n} mismatched={bad}]")
    return " ".join(parts)


def _wrap(wrappers: dict) -> list[tuple[object, str, object]]:
    """Replace every function in wrappers by its wrapper in every dtlocus
    module namespace that holds it; the (module, name, original) list puts
    them back (_unwrap)."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dtlocus" or name.startswith("dtlocus.")):
            continue
        for key, value in list(vars(module).items()):
            if any(value is fn for fn in wrappers):
                undo.append((module, key, value))
                setattr(module, key, wrappers[value])
    return undo


def _unwrap(undo) -> None:
    for module, key, value in reversed(undo):
        setattr(module, key, value)


class WorkCount:
    """Kernel evaluations, correct calls, Newton iterations, polish passes
    and crossing-search phase evaluations per gain sign.

    install() wraps ``plant._log_kernel``, ``continuation.correct``, their
    lockstep twins ``plant._log_kernel_many`` and
    ``continuation.correct_many`` (one count per point or solve) and
    ``poly._horner_triple`` in every dtlocus module namespace that holds
    them, and ``BoundaryFunctions.phi_slope`` (one count per element of
    an array) and, where a checkout has it, its former array twin
    ``phi_slope_many`` on their class;
    uninstall() puts the originals back.  A call counts towards "+" when
    its plant's gain has the sign of the job's plant (set ``alpha`` before
    each job), else "-"; a polish pass always counts towards "+".
    """

    def __init__(self):
        self.alpha = 1.0
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _sign(self, plant) -> str:
        return "+" if (plant.alpha > 0.0) == (self.alpha > 0.0) else "-"

    def install(self) -> None:
        kernel = sys.modules["dtlocus.plant"]._log_kernel
        correct = sys.modules["dtlocus.continuation"].correct
        # the lockstep twins, missing from a checkout without them
        kernel_many = getattr(sys.modules["dtlocus.plant"], "_log_kernel_many", None)
        correct_many = getattr(sys.modules["dtlocus.continuation"], "correct_many", None)
        horner = sys.modules["dtlocus.poly"]._horner_triple
        line = sys.modules["dtlocus.boundary"].BoundaryFunctions
        phase = line.phi_slope
        phase_many = getattr(line, "phi_slope_many", None)  # missing from a checkout without it

        def counted_kernel(plant, *args):
            self.counts[self._sign(plant), "kernel"] += 1
            return kernel(plant, *args)

        def counted_kernel_many(plant, s):
            self.counts[self._sign(plant), "kernel"] += len(s)
            return kernel_many(plant, s)

        def counted_correct(plant, *args, **kwargs):
            sign = self._sign(plant)
            self.counts[sign, "correct"] += 1
            out = correct(plant, *args, **kwargs)
            self.counts[sign, "newton"] += out.iterations
            return out

        def counted_correct_many(plant, s, *args, **kwargs):
            sign = self._sign(plant)
            self.counts[sign, "correct"] += len(s)
            out = correct_many(plant, s, *args, **kwargs)
            self.counts[sign, "newton"] += int(out.iterations.sum())
            return out

        def counted_horner(*args):
            self.counts["+", "polish"] += 1
            return horner(*args)

        def counted_phase(bf, omega):
            self.counts[self._sign(bf.plant), "phase"] += getattr(omega, "size", 1)
            return phase(bf, omega)

        def counted_phase_many(bf, omega):
            self.counts[self._sign(bf.plant), "phase"] += len(omega)
            return phase_many(bf, omega)

        wrappers = {kernel: counted_kernel, correct: counted_correct, horner: counted_horner}
        if kernel_many is not None:
            wrappers.update({kernel_many: counted_kernel_many, correct_many: counted_correct_many})
        self._undo = _wrap(wrappers)
        methods = {"phi_slope": counted_phase}
        if phase_many is not None:
            methods["phi_slope_many"] = counted_phase_many
        for name, wrapper in methods.items():
            self._undo.append((line, name, getattr(line, name)))
            setattr(line, name, wrapper)

    def uninstall(self) -> None:
        _unwrap(self._undo)
        self._undo = []

    def line(self, result) -> str:
        """The counts of each gain sign of result, with its unmirrored rows
        and those of them above the gain cap."""
        parts = []
        for sign, res in (("+", result), ("-", result.negative)):
            if res is None:
                continue
            K = [t.array[:, 2] for t in res.trajectories if not t.mirrored]
            above = sum(int((k > res.region.lnkmax).sum()) for k in K)
            parts.append(
                f"{sign}[kernel={self.counts[sign, 'kernel']} "
                f"correct={self.counts[sign, 'correct']} newton={self.counts[sign, 'newton']} "
                f"polish={self.counts[sign, 'polish']} phase={self.counts[sign, 'phase']} "
                f"points={sum(map(len, K))} above={above}]")
        return " ".join(parts)


def _outputs(dtlocus, job, result) -> dict:
    """The output texts the job asks for, as the benchmark makes them."""
    texts = {"json": dtlocus.cli.result_to_json(result)}
    if "csv" in job.outputs:
        texts["csv"] = dtlocus.cli.result_to_csv(result)
    if "svg" in job.outputs:
        texts["svg"] = dtlocus.svgplot.render_svg(result)
    return texts


class Census:
    """Per-job findings, warnings, step failures, _dedup drops, ledger
    mismatches and close cap ends, with totals.  install() wraps ``tracer._dedup`` to count its
    drops; uninstall() puts it back."""

    def __init__(self, checks):
        self.checks = checks
        self.totals: Counter = Counter()
        self.drops = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        dedup = sys.modules["dtlocus.tracer"]._dedup

        def counted_dedup(trajectories):
            kept = dedup(trajectories)
            self.drops += len(trajectories) - len(kept)
            return kept

        self._undo = _wrap({dedup: counted_dedup})

    def uninstall(self) -> None:
        _unwrap(self._undo)
        self._undo = []

    def line(self, dtlocus, job) -> str | None:
        """The job's census line, or None when it has no finding."""
        self.drops = 0
        warnings = failures = mismatched = close = 0
        try:
            plant = dtlocus.cli.parse_input(job.doc)
            result = dtlocus.run(plant, dtlocus.RegionSpec(job.sigma0, job.kmax),
                                 dtlocus.TraceOptions(negative_gains=job.negative_gains))
            passes = [res for res in (result, result.negative) if res is not None]
            warnings = sum(len(res.warnings) for res in passes)
            failures = sum(type(t.termination).__name__ == "StepFailure"
                           for res in passes for t in res.trajectories)
            mismatched = sum(ledger_mismatches(res)[1] for res in passes)
            close = sum(close_cap_ends(res) for res in passes)
            texts = _outputs(dtlocus, job, result)
            try:
                found = self.checks.check_job(job, sum(len(res.trajectories) for res in passes),
                                              texts["json"], texts.get("csv"), texts.get("svg"))
            except self.checks.Malformed as e:
                found = [f"malformed: {e}"]
        except Exception as e:  # a raising job fails, as in the benchmark
            found = [f"raised {type(e).__name__}: {e}"]
        self.totals.update(jobs=1, failed=int(bool(found)), warning_jobs=int(bool(warnings)),
                           warnings=warnings, step_failures=failures, drops=self.drops,
                           ledger_jobs=int(bool(mismatched)), close=close)
        if not (found or warnings or failures or self.drops or mismatched or close):
            return None
        return (f"{job.label} failed={int(bool(found))} warnings={warnings} "
                f"step_failures={failures} drops={self.drops} ledger={mismatched} close={close}"
                + "".join(f" | {f}" for f in found))

    def total_line(self) -> str:
        return "total " + _count_fields(self.totals)

    def record(self, dtlocus, jobs) -> dict:
        """The census of jobs as a baseline record: the fields of each job
        with a finding by its label, and the totals."""
        found = {}
        for job in jobs:
            line = self.line(dtlocus, job)
            if line is not None:
                found[job.label] = line[len(job.label) + 1:]
        return {"jobs": found, "total": {k: self.totals[k] for k in _TOTAL_KEYS}}


_TOTAL_KEYS = ("jobs", "failed", "warning_jobs", "warnings", "step_failures", "drops",
               "ledger_jobs", "close")


def _count_fields(counts) -> str:
    return " ".join(f"{k}={counts.get(k, 0)}" for k in _TOTAL_KEYS)


def _job_order(label: str) -> tuple[int, str]:
    """Workload job labels sort by the job index in their brackets."""
    return int(label[label.index("[") + 1:label.index("]")]), label


def census_diff(before: dict, after: dict) -> list[str]:
    """The jobs of the records after ({seed: record}) that appear, clear or
    change against the records before, seed by seed, then the totals of
    those seeds before and after; a seed missing before counts as empty."""
    lines = []
    totals = {"before": Counter(), "after": Counter()}
    for seed, new in after.items():
        old = before.get(seed, {"jobs": {}, "total": {}})
        totals["before"].update(old["total"])
        totals["after"].update(new["total"])
        for label in sorted(old["jobs"].keys() | new["jobs"].keys(), key=_job_order):
            was, now = old["jobs"].get(label), new["jobs"].get(label)
            if was is None:
                lines.append(f"{seed} {label} appears: {now}")
            elif now is None:
                lines.append(f"{seed} {label} clears: {was}")
            elif was != now:
                lines.append(f"{seed} {label} changes: {was} -> {now}")
    return lines + [f"total {when}: {_count_fields(counts)}" for when, counts in totals.items()]


def _seed_list(text: str) -> list[int]:
    """Seeds from a comma list of seeds and inclusive ranges: 101-140,201."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def digest_line(dtlocus, job, structure: bool = False, work: WorkCount | None = None,
                audit: bool = False) -> str:
    if work is not None:
        work.counts.clear()  # the plant's own roots are set-up work too
    try:
        plant = dtlocus.cli.parse_input(job.doc)
        region = dtlocus.RegionSpec(job.sigma0, job.kmax)
        if work is not None:
            work.alpha = plant.alpha
        result = dtlocus.run(plant, region, dtlocus.TraceOptions(negative_gains=job.negative_gains))
        if work is not None:
            parts = [work.line(result)]
        elif structure:
            parts = [topology(result)]
        elif audit:
            parts = [ledger(result)]
        else:
            parts = [f"{fmt}={_sha(text)}" for fmt, text in _outputs(dtlocus, job, result).items()]
    except Exception as e:  # a raising job is part of the digest
        parts = [f"raised {type(e).__name__}: {e}"]
    return f"{job.label} " + " ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(DEFAULT_JOBS))
    ap.add_argument("--seed", type=_seed_list, default=[101],
                    help="workload seed, or a list such as 101-140,201-230")
    ap.add_argument("--jobs", type=int, help="jobs to run (default: %s)" % DEFAULT_JOBS)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding dtlocus/")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--topology", action="store_true",
                      help="print trajectory and termination counts, not output hashes")
    mode.add_argument("--work", action="store_true",
                      help="print kernel evaluations, correct calls, Newton iterations, "
                           "polish passes, phase evaluations, emitted points and those "
                           "above the gain cap")
    mode.add_argument("--ledger", action="store_true",
                      help="print gain intervals and those whose traced count misses the ledger")
    mode.add_argument("--census", action="store_true",
                      help="print the benchmark check's findings, warnings, step failures, "
                           "dedup drops, ledger mismatches and close cap ends of each job "
                           "that has any, then their totals")
    ap.add_argument("--baseline", type=Path,
                    help="with --census: print only the jobs that differ from this file's "
                         "records, and the totals before and after")
    ap.add_argument("--update", action="store_true",
                    help="with --baseline: write this run's records into the file")
    args = ap.parse_args(argv)
    if args.baseline is not None and not args.census:
        ap.error("--baseline needs --census")
    if args.update and args.baseline is None:
        ap.error("--update needs --baseline")
    if len(args.seed) > 1 and args.census and args.baseline is None:
        ap.error("a census of more than one seed needs --baseline")

    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "locusbench"))
    dtlocus = importlib.import_module("dtlocus")
    if not Path(dtlocus.__file__).resolve().is_relative_to(args.src.resolve()):
        raise SystemExit(f"output_digest.py: dtlocus was imported from {dtlocus.__file__}, "
                         f"not {args.src}")
    importlib.import_module("dtlocus.cli")
    importlib.import_module("dtlocus.svgplot")
    workloads = importlib.import_module("workloads")

    n = args.jobs if args.jobs is not None else DEFAULT_JOBS[args.workload]

    def jobs(seed):
        return itertools.islice(workloads.jobs(args.workload, seed), n)

    if args.baseline is not None:
        checks = importlib.import_module("checks")
        stored = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        records = {}
        for seed in args.seed:
            census = Census(checks)
            census.install()
            try:
                records[str(seed)] = census.record(dtlocus, jobs(seed))
            finally:
                census.uninstall()
        lines = census_diff(stored.get(args.workload, {}), records)
        print("\n".join(lines))
        if args.update:
            stored.setdefault(args.workload, {}).update(records)
            args.baseline.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return int(len(lines) > 2)
    if args.census:
        (seed,) = args.seed
        census = Census(importlib.import_module("checks"))
        census.install()
        try:
            for job in jobs(seed):
                line = census.line(dtlocus, job)
                if line is not None:
                    print(line, flush=True)
        finally:
            census.uninstall()
        print(census.total_line())
        return 0
    work = WorkCount() if args.work else None
    if work is not None:
        work.install()
    lead = len(args.seed) > 1
    try:
        for seed in args.seed:
            for job in jobs(seed):
                line = digest_line(dtlocus, job, args.topology, work, args.ledger)
                print(f"{seed} {line}" if lead else line, flush=True)
    finally:
        if work is not None:
            work.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
