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
from dataclasses import fields
from itertools import chain

import numpy as np

from .boundary import RegionSpec
from .continuation import TOL_CORR
from .errors import DtLocusError, InputError
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


def _float(x, field):
    """float(x) of a JSON number, an integer too large for a double refused."""
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"field '{field}' holds an integer too large for a double") from None


def _number(doc, field):
    v = doc.get(field)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"field '{field}' must be a number, got {v!r}")
    return _float(v, field)


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
        out.append(complex(_float(item[0], field), _float(item[1], field)))
    return tuple(out)


def _coeff_list(doc, field):
    v = doc.get(field)
    if (
        not isinstance(v, list)
        or not v
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)
    ):
        raise InputError(f"field '{field}' must be a non-empty list of numbers")
    out = [_float(x, field) for x in v]
    if not all(map(math.isfinite, out)):  # JSON's 1e400 and NaN parse to floats
        raise InputError(f"field '{field}' must hold finite numbers")
    return out


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


def _header(origin: type, termination: type, mirrored: bool) -> tuple[str, bool]:
    """The text json.dumps writes for a trajectory of these types, origin
    and termination each {"type": name, **vars(value)}, as a % format of
    their fields and the points' text; and whether the fields go in as they
    are (%r: ints, whose repr json.dumps writes) or as their json.dumps
    text (%s: a BranchOrigin's angle, a StepFailure's reason)."""
    plain = origin is not BranchOrigin and termination is not StepFailure
    conv = "%r" if plain else "%s"

    def tag(cls):
        return "{%s}" % ", ".join([f'"type": "{_TYPE_NAMES[cls]}"',
                                   *(f'"{f.name}": {conv}' for f in fields(cls))])

    return (f'{{"origin": {tag(origin)}, "termination": {tag(termination)}, '
            f'"mirrored": {json.dumps(mirrored)}, "points": [%s]}}', plain)


_HEADERS = {(o, e, m): _header(o, e, m)
            for o in (PoleOrigin, CrossingOrigin, BranchOrigin)
            for e in (GainCap, LeftRegion, ReachedBranch, StepFailure)
            for m in (False, True)}


def _json_fields(value) -> list[str]:
    return [json.dumps(v, allow_nan=False) for v in vars(value).values()]


# stands in for each pass's crossing lists and trajectory list in the
# document json.dumps writes; result_to_json splices their text in its place
_SLOT = "\0"
_SLOT_JSON = json.dumps(_SLOT)


def _result_doc(result: RootLocusResult, sign: float) -> dict:
    plant = result.plant
    return {
        "plant": {
            "alpha": plant.alpha,
            "delay": plant.delay,
            "zeros": [[z.real, z.imag] for z in plant.zeros],
            "poles": [[p.real, p.imag] for p in plant.poles],
        },
        "region": {"sigma0": result.region.sigma0, "kmax": result.region.kmax},
        "crossings": {"inward": _SLOT, "outward": _SLOT},
        "branch_points": [
            {"re": b.s.real, "im": b.s.imag, "k": sign * b.k,
             "multiplicity": b.multiplicity, "active": b.active}
            for b in result.branch_points
        ],
        "trajectories": _SLOT,
        "warnings": list(result.warnings),
    }


_CONJUGATE = np.array([1.0, -1.0, 1.0])


def _pass_texts(trajectories, sign: float, row: str, sep: str):
    """The text of each trajectory's rows: (sigma, omega, sign e^K) per
    point, led by (sigma, omega, 0.0) of its start marker.  Each row
    is the % format row of (sigma, omega, k), which puts a NUL character
    before the omega field, and sep joins them.  One % call
    formats the rows of the whole pass but an image's: a mirrored trajectory
    that directly follows its exact conjugate (its rows with omega negated,
    to the bit, -0.0 apart from 0.0, and its start marker's conjugate by
    repr) reuses that one's text with the sign of each omega toggled, by two
    replaces of the NUL: '%.17g' % -x and repr(-x) are the text of x with
    its sign flipped, -0.0 included.  The other texts keep their NULs for
    the caller to drop."""
    if not trajectories:
        return []
    arrays = [t.array for t in trajectories]
    rows = np.concatenate(arrays)
    raw, conj = rows.tobytes(), (rows * _CONJUGATE).tobytes()
    w = rows.strides[0]
    images, fmts, markers = [], [], []
    at = kept = 0  # rows before, and those formatted
    prev = None  # the trajectory before, unless an image
    for t, n in zip(trajectories, map(len, arrays)):
        m = t.start_marker
        image = (t.mirrored and prev is not None and len(prev.array) == n
                 and (m is None) == (prev.start_marker is None)
                 and (m is None or repr(m) == repr(prev.start_marker.conjugate()))
                 and conj[w * at:w * (at + n)] == raw[w * (at - n):w * at])
        images.append(image)
        at += n
        if image:
            prev = None
            continue
        fmts.append(sep.join([row] * (n + (m is not None))))
        if m is not None:
            markers.append((kept, m))
        kept += n
        prev = t
    if kept < at:
        rows = np.concatenate([a for a, image in zip(arrays, images) if not image])
    values = rows.ravel().tolist()
    ks = map(math.exp, values[2::3])
    values[2::3] = ks if sign == 1.0 else [sign * k for k in ks]
    for i, m in reversed(markers):
        values[3 * i:3 * i] = m.real, m.imag, 0.0
    texts = ("\1".join(fmts) % tuple(values)).split("\1")
    if kept < at:
        pieces, texts = iter(texts), []
        for image in images:
            texts.append(texts[-1].replace("\0-", "").replace("\0", "-") if image else next(pieces))
    return texts


def _crossing_list(crossings, sign: float) -> str:
    values = [x for c in crossings for x in (c.omega, sign * c.k)]
    text = "[%s]" % ", ".join(['{"omega": %r, "k": %r}'] * len(crossings)) % tuple(values)
    if "n" in text:  # inf or nan: no float text holds an n, nor does the format
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def _trajectory_list(trajectories, sign: float) -> str:
    texts = _pass_texts(trajectories, sign, "[%r, \0%r, %r]", ", ")
    if any("n" in text for text in texts):  # inf or nan: no float text holds an n
        raise ValueError("Out of range float values are not JSON compliant")
    fmts, args = [], []
    for t, text in zip(trajectories, texts):
        o, e = t.origin, t.termination
        fmt, plain = _HEADERS[type(o), type(e), t.mirrored]
        fmts.append(fmt)
        if plain:
            args += vars(o).values()
            args += vars(e).values()
        else:
            args += _json_fields(o)
            args += _json_fields(e)
        args.append(text)
    return ("[%s]" % ", ".join(fmts) % tuple(args)).replace("\0", "")


def result_to_json(result: RootLocusResult) -> str:
    """The result as one line of strict JSON; floats round-trip exactly.

    json.dumps writes all but each pass's crossing lists and trajectory list,
    which are formatted as it would (repr of each float, its separators) and
    spliced in."""
    passes = [(result, 1.0)]
    doc = _result_doc(result, 1.0)
    if result.negative is not None:
        doc["negative"] = _result_doc(result.negative, -1.0)
        passes.append((result.negative, -1.0))
    parts = json.dumps(doc, allow_nan=False, check_circular=False).split(_SLOT_JSON)
    texts = []
    for res, sign in passes:
        texts += (_crossing_list(res.crossings.inward, sign),
                  _crossing_list(res.crossings.outward, sign),
                  _trajectory_list(res.trajectories, sign))
    return "".join(chain.from_iterable(zip(parts, texts))) + parts[-1] + "\n"


def result_to_csv(result: RootLocusResult) -> str:
    parts = ["traj_id,sigma,omega,k"]
    tid = 0
    for res, sign in ((result, 1.0), (result.negative, -1.0)):
        if res is None:
            continue
        # each row's text starts with a \2 for its trajectory's id
        texts = _pass_texts(res.trajectories, sign, "\2%.17g,\0%.17g,%.17g", "\n")
        parts += [text.replace("\2", f"{i},").replace("\0", "")
                  for i, text in enumerate(texts, tid) if text]
        tid += len(texts)
    return "\n".join(parts) + "\n"


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
    except (DtLocusError, OSError) as e:
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
