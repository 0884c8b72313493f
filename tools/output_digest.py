"""One digest line per job of a benchmark workload, for same-output checks.

    python3 tools/output_digest.py corpus|highorder|dense [--seed N] [--jobs N]
        [--src DIR] [--topology | --work]

Each job runs as the benchmark runs it (``cli.parse_input`` ->
``tracer.run`` -> ``cli.result_to_json``, plus ``result_to_csv`` and
``svgplot.render_svg`` when the job asks for them), with no timing and no
time limit.  A job that returns prints its label and the sha256 of each
output text; a job that raises prints its label, the exception type and its
message.  The jobs come from ``locusbench/workloads.py`` of this checkout;
the program comes from ``--src`` (default: this checkout's ``src``).

With ``--topology`` a job that returns prints, instead of hashes, one line
per gain sign: the trajectory count, the count of each termination type,
the count of mirrored trajectories and the warning count.  Diffing these
shows that a change which moves points keeps the structure of every locus;
a real-axis trajectory that drifts off the axis and is mirrored into a
duplicate shows up in ``mirrored``.

With ``--work`` a job that returns prints, instead of hashes, one line per
gain sign: the plant kernel evaluations (``plant._log_kernel``), the
``continuation.correct`` calls and their Newton iterations.  They are
counted by wrapping those names in every dtlocus module that holds them,
where the program looks them up, as ``locusbench/tracing.py`` does; the
sign-free set-up both passes share counts with the positive one.  Diffing
these shows that a change which should only save time does the same work.

Digest two commits and diff the files to show a change keeps every output
byte (or, with ``--topology``, every structure) and every failure the same:

    python3 tools/output_digest.py corpus --src ../old/src > old.txt
    python3 tools/output_digest.py corpus > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# whole generator cycles: corpus 120 x 7, highorder 20 x 11, dense 4 x 5
DEFAULT_JOBS = {"corpus": 840, "highorder": 220, "dense": 20}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def topology(result) -> str:
    """Trajectory count, termination counts, mirrored count and warning
    count per gain sign."""
    parts = []
    for sign, res in (("+", result), ("-", result.negative)):
        if res is None:
            continue
        ends = Counter(type(t.termination).__name__ for t in res.trajectories)
        fields = [f"n={len(res.trajectories)}"]
        fields += [f"{name}={n}" for name, n in sorted(ends.items())]
        fields.append(f"mirrored={sum(t.mirrored for t in res.trajectories)}")
        fields.append(f"warnings={len(res.warnings)}")
        parts.append(f"{sign}[{' '.join(fields)}]")
    return " ".join(parts)


class WorkCount:
    """Kernel evaluations, correct calls and Newton iterations per gain sign.

    install() wraps ``plant._log_kernel`` and ``continuation.correct`` in
    every dtlocus module namespace that holds them; uninstall() puts the
    originals back.  A call counts towards "+" when its plant's gain has the
    sign of the job's plant (set ``alpha`` before each job), else "-".
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

        def counted_kernel(plant, *args):
            self.counts[self._sign(plant), "kernel"] += 1
            return kernel(plant, *args)

        def counted_correct(plant, *args, **kwargs):
            sign = self._sign(plant)
            self.counts[sign, "correct"] += 1
            out = correct(plant, *args, **kwargs)
            self.counts[sign, "newton"] += out.iterations
            return out

        wrappers = {kernel: counted_kernel, correct: counted_correct}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dtlocus" or name.startswith("dtlocus.")):
                continue
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in wrappers):
                    self._undo.append((module, key, value))
                    setattr(module, key, wrappers[value])

    def uninstall(self) -> None:
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()

    def line(self, signs) -> str:
        return " ".join(
            f"{sign}[kernel={self.counts[sign, 'kernel']} correct={self.counts[sign, 'correct']} "
            f"newton={self.counts[sign, 'newton']}]"
            for sign in signs
        )


def digest_line(dtlocus, job, structure: bool = False, work: WorkCount | None = None) -> str:
    cli, svgplot = dtlocus.cli, dtlocus.svgplot
    try:
        plant = cli.parse_input(job.doc)
        region = dtlocus.RegionSpec(job.sigma0, job.kmax)
        if work is not None:
            work.alpha = plant.alpha
            work.counts.clear()
        result = dtlocus.run(plant, region, dtlocus.TraceOptions(negative_gains=job.negative_gains))
        if work is not None:
            parts = [work.line("+-" if result.negative is not None else "+")]
        elif structure:
            parts = [topology(result)]
        else:
            parts = [f"json={_sha(cli.result_to_json(result))}"]
            if "csv" in job.outputs:
                parts.append(f"csv={_sha(cli.result_to_csv(result))}")
            if "svg" in job.outputs:
                parts.append(f"svg={_sha(svgplot.render_svg(result))}")
    except Exception as e:  # a raising job is part of the digest
        parts = [f"raised {type(e).__name__}: {e}"]
    return f"{job.label} " + " ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(DEFAULT_JOBS))
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--jobs", type=int, help="jobs to run (default: %s)" % DEFAULT_JOBS)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding dtlocus/")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--topology", action="store_true",
                      help="print trajectory and termination counts, not output hashes")
    mode.add_argument("--work", action="store_true",
                      help="print kernel evaluations, correct calls and Newton iterations")
    args = ap.parse_args(argv)

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
    work = WorkCount() if args.work else None
    if work is not None:
        work.install()
    try:
        for job in itertools.islice(workloads.jobs(args.workload, args.seed), n):
            print(digest_line(dtlocus, job, args.topology, work), flush=True)
    finally:
        if work is not None:
            work.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
