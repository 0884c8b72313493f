"""One digest line per job of a benchmark workload, for same-output checks.

    python3 tools/output_digest.py corpus|highorder|dense [--seed N] [--jobs N]
        [--src DIR] [--topology]

Each job runs as the benchmark runs it (``cli.parse_input`` ->
``tracer.run`` -> ``cli.result_to_json``, plus ``result_to_csv`` and
``svgplot.render_svg`` when the job asks for them), with no timing and no
time limit.  A job that returns prints its label and the sha256 of each
output text; a job that raises prints its label, the exception type and its
message.  The jobs come from ``locusbench/workloads.py`` of this checkout;
the program comes from ``--src`` (default: this checkout's ``src``).

With ``--topology`` a job that returns prints, instead of hashes, one line
per gain sign: the trajectory count, the count of each termination type and
the warning count.  Diffing these shows that a change which moves points
keeps the structure of every locus.

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
    """Trajectory count, termination counts and warning count per gain sign."""
    parts = []
    for sign, res in (("+", result), ("-", result.negative)):
        if res is None:
            continue
        ends = Counter(type(t.termination).__name__ for t in res.trajectories)
        fields = [f"n={len(res.trajectories)}"]
        fields += [f"{name}={n}" for name, n in sorted(ends.items())]
        fields.append(f"warnings={len(res.warnings)}")
        parts.append(f"{sign}[{' '.join(fields)}]")
    return " ".join(parts)


def digest_line(dtlocus, job, structure: bool = False) -> str:
    cli, svgplot = dtlocus.cli, dtlocus.svgplot
    try:
        plant = cli.parse_input(job.doc)
        region = dtlocus.RegionSpec(job.sigma0, job.kmax)
        result = dtlocus.run(plant, region, dtlocus.TraceOptions(negative_gains=job.negative_gains))
        if structure:
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
    ap.add_argument("--topology", action="store_true",
                    help="print trajectory and termination counts, not output hashes")
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
    for job in itertools.islice(workloads.jobs(args.workload, args.seed), n):
        print(digest_line(dtlocus, job, args.topology), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
