"""File-driven front end: read a plant description, trace, write results.

Exit codes: 0 success, 2 bad input or ill-posed configuration, 3 when
tracing recorded a StepFailure and --strict was requested (outputs are
still written in that case).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .boundary import RegionSpec
from .continuation import H0, TOL_CORR
from .errors import (
    BiProperGainCapViolated,
    BranchOnBoundary,
    DegenerateCrossing,
    InputError,
    PoleOrZeroOnBoundary,
)
from .plant import Plant, plant_from_coefficients
from .poly import RealPolynomial
from .svgplot import render_svg
from .tracer import (
    BranchOrigin,
    CrossingOrigin,
    GainCap,
    LeftRegion,
    PoleOrigin,
    ReachedBranch,
    RootLocusResult,
    StepFailure,
    TraceOptions,
    run,
)


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    sigma0: float
    kmax: float
    fmt: str = "json"
    out_path: str | None = None
    svg_path: str | None = None
    tol_corr: float = TOL_CORR
    h0: float = H0
    negative_gains: bool = False
    strict: bool = False


def _number(doc, field):
    v = doc.get(field)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"field '{field}' must be a number, got {v!r}")
    return float(v)


def _pair_list(doc, field):
    v = doc.get(field)
    if not isinstance(v, list):
        raise InputError(f"field '{field}' must be a list of [re, im] pairs")
    out = []
    for i, item in enumerate(v):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in item)
        ):
            raise InputError(f"entry {i} of '{field}' must be a [re, im] pair of numbers")
        out.append(complex(float(item[0]), float(item[1])))
    return tuple(out)


def _coeff_list(doc, field):
    v = doc.get(field)
    if (
        not isinstance(v, list)
        or not v
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)
    ):
        raise InputError(f"field '{field}' must be a non-empty list of numbers")
    return [float(x) for x in v]


def parse_input(data: bytes) -> Plant:
    """Plant from a JSON document in root form or coefficient form."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"input is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    if "num" in doc or "den" in doc:
        for field in ("num", "den", "delay"):
            if field not in doc:
                raise InputError(f"coefficient form requires field '{field}'")
        num = RealPolynomial(_coeff_list(doc, "num"))
        den = RealPolynomial(_coeff_list(doc, "den"))
        return plant_from_coefficients(num, den, _number(doc, "delay"))
    for field in ("alpha", "delay", "zeros", "poles"):
        if field not in doc:
            raise InputError(f"root form requires field '{field}'")
    return Plant(
        alpha=_number(doc, "alpha"),
        delay=_number(doc, "delay"),
        zeros=_pair_list(doc, "zeros"),
        poles=_pair_list(doc, "poles"),
    )


def _num(v) -> str:
    return format(float(v), ".17g")


def _pairs(values) -> str:
    return "[" + ", ".join(f"[{_num(v.real)}, {_num(v.imag)}]" for v in values) + "]"


def _origin_obj(origin) -> str:
    if isinstance(origin, PoleOrigin):
        return f'{{"type": "pole", "index": {origin.index}}}'
    if isinstance(origin, CrossingOrigin):
        return f'{{"type": "crossing", "index": {origin.index}}}'
    if isinstance(origin, BranchOrigin):
        return f'{{"type": "branch", "index": {origin.index}, "angle": {_num(origin.angle)}}}'
    raise InputError(f"unknown origin {origin!r}")


def _termination_obj(term) -> str:
    if isinstance(term, GainCap):
        return '{"type": "gain_cap"}'
    if isinstance(term, LeftRegion):
        m = "null" if term.matched is None else str(term.matched)
        return f'{{"type": "left_region", "matched": {m}}}'
    if isinstance(term, ReachedBranch):
        return f'{{"type": "reached_branch", "index": {term.index}}}'
    if isinstance(term, StepFailure):
        return f'{{"type": "step_failure", "reason": {json.dumps(term.reason)}}}'
    raise InputError(f"unknown termination {term!r}")


def _trajectory_rows(traj, sign: float):
    rows = []
    if traj.start_marker is not None:
        rows.append((traj.start_marker.real, traj.start_marker.imag, 0.0))
    for p in traj.points:
        rows.append((p.sigma, p.omega, sign * math.exp(p.Kval)))
    return rows


def _result_obj(result: RootLocusResult, sign: float, indent: str) -> str:
    nl = "\n" + indent
    crossing = lambda c: f'{{"omega": {_num(c.omega)}, "k": {_num(sign * c.k)}}}'
    inward = ", ".join(crossing(c) for c in result.crossings.inward)
    outward = ", ".join(crossing(c) for c in result.crossings.outward)
    branches = ", ".join(
        f'{{"re": {_num(b.s.real)}, "im": {_num(b.s.imag)}, "k": {_num(sign * b.k)}, '
        f'"multiplicity": {b.multiplicity}, "active": {str(b.active).lower()}}}'
        for b in result.branch_points
    )
    trajs = []
    for t in result.trajectories:
        pts = ", ".join(
            f"[{_num(s)}, {_num(w)}, {_num(k)}]" for s, w, k in _trajectory_rows(t, sign)
        )
        trajs.append(
            f'{{"origin": {_origin_obj(t.origin)}, '
            f'"termination": {_termination_obj(t.termination)}, '
            f'"mirrored": {str(t.mirrored).lower()}, '
            f'"points": [{pts}]}}'
        )
    warn = ", ".join(json.dumps(w) for w in result.warnings)
    if trajs:
        traj_block = nl + "  " + ("," + nl + "  ").join(trajs) + nl
    else:
        traj_block = ""
    fields = [
        f'"plant": {{"alpha": {_num(result.plant.alpha)}, "delay": {_num(result.plant.delay)}, '
        f'"zeros": {_pairs(result.plant.zeros)}, "poles": {_pairs(result.plant.poles)}}}',
        f'"region": {{"sigma0": {_num(result.region.sigma0)}, "kmax": {_num(result.region.kmax)}}}',
        f'"crossings": {{"inward": [{inward}], "outward": [{outward}]}}',
        f'"branch_points": [{branches}]',
        f'"trajectories": [{traj_block}]',
        f'"warnings": [{warn}]',
    ]
    return "{" + nl + ("," + nl).join(fields) + "\n" + indent[:-2] + "}"


def result_to_json(result: RootLocusResult) -> str:
    body = _result_obj(result, 1.0, "  ")
    if result.negative is not None:
        neg = _result_obj(result.negative, -1.0, "    ")
        body = body[: body.rfind("\n}")] + ',\n  "negative": ' + neg + "\n}"
    return body + "\n"


def result_to_csv(result: RootLocusResult) -> str:
    lines = ["traj_id,sigma,omega,k"]
    tid = 0
    for res, sign in ((result, 1.0), (result.negative, -1.0)):
        if res is None:
            continue
        for t in res.trajectories:
            for s, w, k in _trajectory_rows(t, sign):
                lines.append(f"{tid},{_num(s)},{_num(w)},{_num(k)}")
            tid += 1
    return "\n".join(lines) + "\n"


def _has_step_failure(result: RootLocusResult) -> bool:
    for res in (result, result.negative):
        if res is None:
            continue
        if any(isinstance(t.termination, StepFailure) for t in res.trajectories):
            return True
    return False


def execute(cfg: RunConfig) -> RootLocusResult:
    with open(cfg.input_path, "rb") as f:
        plant = parse_input(f.read())
    region = RegionSpec(cfg.sigma0, cfg.kmax)
    options = TraceOptions(tol_corr=cfg.tol_corr, h0=cfg.h0, negative_gains=cfg.negative_gains)
    return run(plant, region, options)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtlocus",
        description="Root locus of a dead-time SISO plant inside Re(s) >= sigma0, "
        "traced up to a gain cap.",
    )
    ap.add_argument("input", help="JSON plant description (root or coefficient form)")
    ap.add_argument("--sigma0", type=float, required=True, help="left edge of the region")
    ap.add_argument("--kmax", type=float, required=True, help="gain cap, > 0")
    ap.add_argument("--out", help="output file (default: stdout)")
    ap.add_argument("--format", choices=("json", "csv"), default="json", help="data format")
    ap.add_argument("--svg", help="also write an SVG plot to this path")
    ap.add_argument("--negative-gains", action="store_true",
                    help="additionally trace the locus of negative gains")
    ap.add_argument("--strict", action="store_true",
                    help="exit 3 if any trajectory ends in a step failure")
    ap.add_argument("--tol", type=float, default=TOL_CORR, help="corrector tolerance")
    ap.add_argument("--h0", type=float, default=H0, help="initial continuation step")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        input_path=args.input,
        sigma0=args.sigma0,
        kmax=args.kmax,
        fmt=args.format,
        out_path=args.out,
        svg_path=args.svg,
        tol_corr=args.tol,
        h0=args.h0,
        negative_gains=args.negative_gains,
        strict=args.strict,
    )
    try:
        result = execute(cfg)
    except (
        InputError,
        PoleOrZeroOnBoundary,
        BiProperGainCapViolated,
        DegenerateCrossing,
        BranchOnBoundary,
        OSError,
    ) as e:
        print(f"dtlocus: error: {e}", file=sys.stderr)
        return 2

    text = result_to_json(result) if cfg.fmt == "json" else result_to_csv(result)
    try:
        if cfg.out_path:
            with open(cfg.out_path, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        if cfg.svg_path:
            with open(cfg.svg_path, "w", encoding="utf-8") as f:
                f.write(render_svg(result))
    except OSError as e:
        print(f"dtlocus: error: {e}", file=sys.stderr)
        return 2

    for res in (result, result.negative):
        if res is None:
            continue
        for w in res.warnings:
            print(f"dtlocus: warning: {w}", file=sys.stderr)

    if cfg.strict and _has_step_failure(result):
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
