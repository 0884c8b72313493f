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
from itertools import chain

import numpy as np

from .boundary import RegionSpec
from .continuation import TOL_CORR
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
    Trajectory,
    run,
)


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


_TYPE_NAMES = {
    PoleOrigin: "pole",
    CrossingOrigin: "crossing",
    BranchOrigin: "branch",
    GainCap: "gain_cap",
    LeftRegion: "left_region",
    ReachedBranch: "reached_branch",
    StepFailure: "step_failure",
}


def _tagged(value) -> dict:
    return {"type": _TYPE_NAMES[type(value)], **vars(value)}


# stands in for each trajectory's points in the document json.dumps writes;
# result_to_json splices the formatted points in its place
_POINTS = "\0"
_POINTS_JSON = json.dumps(_POINTS)


def _result_doc(result: RootLocusResult, sign: float) -> dict:
    plant = result.plant
    crossing = lambda c: {"omega": c.omega, "k": sign * c.k}
    return {
        "plant": {
            "alpha": plant.alpha,
            "delay": plant.delay,
            "zeros": [[z.real, z.imag] for z in plant.zeros],
            "poles": [[p.real, p.imag] for p in plant.poles],
        },
        "region": {"sigma0": result.region.sigma0, "kmax": result.region.kmax},
        "crossings": {
            "inward": [crossing(c) for c in result.crossings.inward],
            "outward": [crossing(c) for c in result.crossings.outward],
        },
        "branch_points": [
            {"re": b.s.real, "im": b.s.imag, "k": sign * b.k,
             "multiplicity": b.multiplicity, "active": b.active}
            for b in result.branch_points
        ],
        "trajectories": [
            {"origin": _tagged(t.origin), "termination": _tagged(t.termination),
             "mirrored": t.mirrored, "points": _POINTS}
            for t in result.trajectories
        ],
        "warnings": list(result.warnings),
    }


_CONJUGATE = np.array([1.0, -1.0, 1.0])


def _is_image(t: Trajectory, prev: Trajectory) -> bool:
    """Whether t's rows are prev's with omega negated, to the bit (-0.0
    apart from 0.0), the start marker's too; a complex repr tells every
    double apart."""
    m, pm = t.start_marker, prev.start_marker
    return ((m is None) == (pm is None) and (m is None or repr(m) == repr(pm.conjugate()))
            and (t.array * _CONJUGATE).tobytes() == prev.array.tobytes())


def _point_texts(trajectories, sign: float, row: str, sep: str):
    """The text of each trajectory's rows (Trajectory.rows(sign)), each by
    the % format row of (sigma, omega, k), joined by sep.  row puts a NUL
    character before the omega field.  A mirrored trajectory that directly
    follows its exact conjugate (_is_image) reuses that one's text with the
    sign of each omega toggled, by two replaces of the NUL: '%.17g' % -x and
    repr(-x) are the text of x with its sign flipped, -0.0 included."""
    prev = None
    for t in trajectories:
        if t.mirrored and prev is not None and _is_image(t, prev):
            yield text.replace("\0-", "").replace("\0", "-")
            prev = None  # an image's text is not kept to toggle back
            continue
        values = t.array.ravel().tolist()
        values[2::3] = [sign * math.exp(K) for K in values[2::3]]
        if t.start_marker is not None:
            values[:0] = (t.start_marker.real, t.start_marker.imag, 0.0)
        text = sep.join([row] * (len(values) // 3)) % tuple(values)
        yield text.replace("\0", "")
        prev = t


def result_to_json(result: RootLocusResult) -> str:
    """The result as one line of strict JSON; floats round-trip exactly.

    json.dumps writes all but the trajectories' points, which are formatted
    as it would (repr of each float, its separators) and spliced in."""
    passes = [(result, 1.0)]
    doc = _result_doc(result, 1.0)
    if result.negative is not None:
        doc["negative"] = _result_doc(result.negative, -1.0)
        passes.append((result.negative, -1.0))
    parts = json.dumps(doc, allow_nan=False, check_circular=False).split(_POINTS_JSON)
    points = [f"[{text}]" for res, sign in passes
              for text in _point_texts(res.trajectories, sign, "[%r, \0%r, %r]", ", ")]
    if any("n" in text for text in points):  # inf or nan: no float text holds an n
        raise ValueError("Out of range float values are not JSON compliant")
    return "".join(chain.from_iterable(zip(parts, points))) + parts[-1] + "\n"


def result_to_csv(result: RootLocusResult) -> str:
    lines = ["traj_id,sigma,omega,k"]
    tid = 0
    for res, sign in ((result, 1.0), (result.negative, -1.0)):
        if res is None:
            continue
        for text in _point_texts(res.trajectories, sign, "%.17g,\0%.17g,%.17g", "\n"):
            if text:
                lines.append(f"{tid}," + text.replace("\n", f"\n{tid},"))
            tid += 1
    return "\n".join(lines) + "\n"


def _has_step_failure(result: RootLocusResult) -> bool:
    for res in (result, result.negative):
        if res is None:
            continue
        if any(isinstance(t.termination, StepFailure) for t in res.trajectories):
            return True
    return False


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
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.input, "rb") as f:
            plant = parse_input(f.read())
        options = TraceOptions(tol_corr=args.tol, negative_gains=args.negative_gains)
        result = run(plant, RegionSpec(args.sigma0, args.kmax), options)
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

    text = result_to_json(result) if args.format == "json" else result_to_csv(result)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as f:
                f.write(render_svg(result))
    except OSError as e:
        print(f"dtlocus: error: {e}", file=sys.stderr)
        return 2

    for res in (result, result.negative):
        if res is None:
            continue
        for w in res.warnings:
            print(f"dtlocus: warning: {w}", file=sys.stderr)

    if args.strict and _has_step_failure(result):
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
