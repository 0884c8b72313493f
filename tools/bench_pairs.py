"""Alternating benchmark pairs of a parent checkout against this one.

    python3 tools/bench_pairs.py --parent DIR --workload corpus|highorder|dense \
        --seeds A-B [--seconds 30] [--trace]

For each seed in A..B (inclusive) the benchmark command of BENCHMARK.json
(``locusbench/run.py --trace 0``) runs once in the parent checkout DIR and
once in this checkout, the parent first on even pairs and second on odd
ones, so a drift of the machine's speed falls on both sides alike.  Each run
imports the program from its own checkout's ``src``.  Before each run its
checkout's ``src`` is byte-compiled (``compileall``, which rewrites only
what changed): with ``PYTHONDONTWRITEBYTECODE`` set, a module edited since
its ``.pyc`` was written would otherwise be recompiled on every import of
every later run, which reads as set-up time, so an edit made while the
pairs run is compiled once.

As each pair ends it prints the seed's failed job count on each side and
whether the failed jobs are the same ones (read from the run records the
benchmark writes to ``.locusbench-out/`` of each checkout).  At the end it
prints, per end-to-end metric of BENCHMARK.json: the parent's median and
interquartile range, this checkout's median, the relative change of the
medians, the gap between them over the parent's IQR, and the pairs this
checkout wins in the metric's direction.  With ``--trace`` the pairs run
``--trace 1`` instead, and the end prints each per-layer metric of
BENCHMARK.json: the parent's median, this checkout's, and their relative
change, which shows in which layer a change's saving sits.  Nothing under
``locusbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    a, b = int(lo), int(hi or lo)
    if b < a:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return list(range(a, b + 1))


def compile_sources(checkout: Path, python: str) -> None:
    """Write current bytecode for every module under the checkout's src."""
    proc = subprocess.run([python, "-m", "compileall", "-q", "src"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs.py: compileall in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int = 0) -> tuple[dict, set[str]]:
    """The summary object (last stdout line) of one benchmark run, traced
    with trace 1, and the labels of its failed jobs."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs.py: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    record = checkout / ".locusbench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    failures = json.loads(record.read_text())["failures"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), {f["job"] for f in failures}


def iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True, choices=("corpus", "highorder", "dense"))
    ap.add_argument("--seeds", type=_seeds, required=True, help="seed range A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true",
                    help="run traced pairs and print the per-layer metrics' medians")
    args = ap.parse_args(argv)

    parent = args.parent.resolve()
    if parent == ROOT or not (parent / "locusbench" / "run.py").is_file():
        raise SystemExit(f"bench_pairs.py: {parent} is not another checkout with locusbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    sides = {"parent": parent, "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        failed = {}
        for side in order:
            compile_sources(sides[side], spec["command"][0])
            summary, failed[side] = run_once(sides[side], spec["command"], args.workload, seed,
                                             args.seconds, int(args.trace))
            runs[side].append(summary)
        p, c = runs["parent"][-1], runs["change"][-1]
        same = "the same jobs" if failed["parent"] == failed["change"] else (
            f"only parent {sorted(failed['parent'] - failed['change'])}, "
            f"only change {sorted(failed['change'] - failed['parent'])}")
        print(f"# pair {i + 1} seed {seed} ({order[0]} first): failed parent {p['failed']} "
              f"change {c['failed']} of {p['attempted']}, {same}"
              + ("" if p["correct"] and c["correct"] else
                 f"; malformed output: parent {not p['correct']} change {not c['correct']}"),
              flush=True)

    n = len(args.seeds)
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {n} pairs, "
          f"--seconds {args.seconds:g}" + (", traced" if args.trace else ""))
    if args.trace:
        print(f"{'metric':<38} {'unit':<10} {'parent p50':>11} {'change p50':>11} {'rel':>8}")
        for m in metrics:
            name = m["name"]
            pm, cm = (statistics.median(r["metrics"][name]["value"] for r in runs[side])
                      for side in ("parent", "change"))
            rel = (cm - pm) / pm if pm else float("nan")
            print(f"{name:<38} {m['unit']:<10} {pm:>11.5g} {cm:>11.5g} {rel:>+8.1%}")
        return 0
    print(f"{'metric':<14} {'parent p50':>11} {'parent IQR':>23} {'change p50':>11} "
          f"{'rel':>8} {'gap/IQR':>8} {'wins':>6}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r["metrics"][name]["value"] for r in runs["parent"]]
        cv = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(pv), statistics.median(cv)
        q1, q3 = iqr(pv)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        rel = (cm - pm) / pm if pm else float("nan")
        gap = abs(cm - pm) / (q3 - q1) if q3 > q1 else (float("inf") if cm != pm else 0.0)
        print(f"{name:<14} {pm:>11.5g} [{q1:>10.5g}, {q3:>10.5g}] {cm:>11.5g} "
              f"{rel:>+8.1%} {gap:>8.2f} {wins:>3}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
