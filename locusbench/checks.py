"""Output checks for one benchmark job, run outside the timed section.

Two kinds of finding:

malformed  the serialized output is unusable: JSON that does not parse or
           parses to another trajectory count, CSV rows or ids that disagree
           with the JSON, SVG that is not an XML <svg> document.  Any of these
           makes the run's ``correct`` false.
violation  a parsed trajectory breaks the locus contract: a point off the
           locus (|1 + k G(s) e^(-hs)| > 1e-5, acceptance criterion 7), a
           point left of the region (Re s < sigma0 - 1e-9), gain not strictly
           increasing in magnitude along a trajectory, or a point set that is
           not conjugate symmetric within 1e-8.  A violation fails the job
           (it counts toward ``failed``) but does not abort the run.

The plant and the region come from the job's own inputs, never from the
program's output: a root-form plant is evaluated as a product over the
generated roots, a coefficient-form plant by Horner's rule on the generated
coefficients in extended precision (numpy longdouble).  So a program that
finds wrong roots, and traces a locus that agrees with them, fails the check.
The program's own log-domain code is never used.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np

RESIDUAL_TOL = 1e-5
REGION_TOL = 1e-9
SYMMETRY_TOL = 1e-8


class Malformed(Exception):
    pass


def _block_trajectories(doc: dict) -> list[tuple[list, float]]:
    """(trajectories, gain sign) for the positive block and the negative one."""
    out = [(doc["trajectories"], 1.0)]
    if "negative" in doc:
        out.append((doc["negative"]["trajectories"], -1.0))
    return out


def _transfer(plant: dict, s: np.ndarray) -> np.ndarray:
    """G(s) of the plant document the job sent, in extended precision."""
    s = s.astype(np.clongdouble)
    if "num" in plant:
        def horner(coeffs):  # ascending coefficients
            acc = np.zeros_like(s)
            for c in reversed(coeffs):
                acc = acc * s + np.longdouble(c)
            return acc
        return horner(plant["num"]) / horner(plant["den"])
    g = np.full_like(s, plant["alpha"])
    for re, im in plant["zeros"]:
        g = g * (s - complex(re, im))
    for re, im in plant["poles"]:
        g = g / (s - complex(re, im))
    return g


def _residuals(plant: dict, pts: np.ndarray) -> np.ndarray:
    s = pts[:, 0] + 1j * pts[:, 1]
    with np.errstate(all="ignore"):
        g = _transfer(plant, s)
        r = np.abs(1.0 + pts[:, 2] * g * np.exp(-np.longdouble(plant["delay"]) * s.astype(np.clongdouble)))
    r = r.astype(float)
    return np.where(np.isfinite(r), r, np.inf)


def _asymmetric(pts: np.ndarray) -> int:
    """Points with no conjugate partner within SYMMETRY_TOL (sigma, omega, ln|k|)."""
    if len(pts) == 0:
        return 0
    k = np.abs(pts[:, 2])
    lnk = np.where(k > 0.0, np.log(np.where(k > 0.0, k, 1.0)), -1e3)
    vals = np.column_stack([pts[:, 0], pts[:, 1], lnk])
    keys = np.round(vals / SYMMETRY_TOL).astype(np.int64)
    index = {key: i for i, key in enumerate(map(tuple, keys.tolist()))}
    mirror = keys * np.array([1, -1, 1], dtype=np.int64)
    bad = 0
    for i, key in enumerate(map(tuple, mirror.tolist())):
        if key in index:
            continue
        target = vals[i] * np.array([1.0, -1.0, 1.0])
        found = False
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    j = index.get((key[0] + da, key[1] + db, key[2] + dc))
                    if j is not None and np.all(np.abs(vals[j] - target) <= SYMMETRY_TOL):
                        found = True
        bad += not found
    return bad


def check_job(job, n_traj: int, json_text: str, csv_text: str | None,
              svg_text: str | None) -> list[str]:
    """Locus-contract violations of one job's output; raises Malformed.

    ``job`` is the workloads.Job that produced the output: its plant
    document and sigma0 are the reference.
    """
    try:
        doc = json.loads(json_text)
        blocks = _block_trajectories(doc)
    except (ValueError, KeyError, TypeError) as e:
        raise Malformed(f"JSON does not parse back: {e}") from None
    parsed = sum(len(trajs) for trajs, _ in blocks)
    if parsed != n_traj:
        raise Malformed(f"JSON holds {parsed} trajectories, the result {n_traj}")

    if csv_text is not None:
        rows = csv_text.splitlines()[1:]
        expect = sum(len(t["points"]) for trajs, _ in blocks for t in trajs)
        ids = {r.split(",", 1)[0] for r in rows}
        if len(rows) != expect or len(ids) != parsed:
            raise Malformed(f"CSV has {len(rows)} rows and {len(ids)} ids, "
                            f"JSON {expect} points and {parsed} trajectories")
    if svg_text is not None:
        try:
            root = ET.fromstring(svg_text)
        except ET.ParseError as e:
            raise Malformed(f"SVG does not parse: {e}") from None
        if not root.tag.endswith("svg"):
            raise Malformed(f"SVG root element is <{root.tag}>")

    plant = json.loads(job.doc)
    sigma0 = job.sigma0
    found: list[str] = []
    for trajs, sign in blocks:
        name = "negative" if sign < 0 else "positive"
        if not trajs:
            continue
        arrays = [np.array(t["points"], dtype=float).reshape(-1, 3) for t in trajs]
        pts = np.concatenate(arrays)
        on = pts[:, 2] != 0.0  # pole marker rows carry k = 0
        res = _residuals(plant, pts[on])
        if len(res) and res.max() > RESIDUAL_TOL:
            n = int((res > RESIDUAL_TOL).sum())
            found.append(f"{name}: {n} points off the locus, worst |1+kGe^-hs| = {res.max():.3g}")
        low = pts[:, 0] < sigma0 - REGION_TOL
        if low.any():
            found.append(f"{name}: {int(low.sum())} points left of sigma0, "
                         f"lowest Re s = {pts[low, 0].min():.6g}")
        flat = [i for i, a in enumerate(arrays) if len(a) > 1 and not np.all(np.diff(np.abs(a[:, 2])) > 0.0)]
        if flat:
            found.append(f"{name}: gain not strictly increasing on {len(flat)} trajectories")
        asym = _asymmetric(pts)
        if asym:
            found.append(f"{name}: {asym} points without a conjugate partner")
        if np.any(np.sign(pts[on, 2]) != sign):
            found.append(f"{name}: gain of the wrong sign")
    return found


def serve(conn) -> None:
    """Check (job, n_traj, texts) requests from conn until it sends None.

    Answers ("ok", violations), ("malformed", reason) or ("error", text).
    """
    while (request := conn.recv()) is not None:
        job, n_traj, texts = request
        try:
            answer = "ok", check_job(job, n_traj, texts["json"], texts.get("csv"), texts.get("svg"))
        except Malformed as e:
            answer = "malformed", str(e)
        except Exception as e:
            answer = "error", f"{type(e).__name__}: {e}"
        conn.send(answer)
