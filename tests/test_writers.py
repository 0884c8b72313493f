"""Byte-for-byte agreement of the SVG polylines, the CSV rows and the JSON
document with the former per-point formatting and whole-document json.dumps
kept in oracles.py, on the demo plant and on crafted results: pixel
coordinates either side of 0.00 (where the former formatting turned "-0.00"
into "0.00"), points on the edges of the plot box, a box of zero width and
height, and mirrored trajectories with and without their exact conjugate
right before them (omega 0.0 against -0.0, a start marker on the real axis),
whose text the writers reuse only in the first case.  The writers format a
whole pass at once, so empty passes, passes of mirrored trajectories alone,
every origin and termination type (a reason that JSON must escape, a branch
departure angle), a gain of -0.0 and non-finite gains are crafted too."""

import dataclasses
import json
import math
import re

import pytest

from dtlocus import svgplot
from dtlocus.boundary import BoundaryCrossing, CrossingSet, RegionSpec
from dtlocus.branch import BranchPoint
from dtlocus.cli import parse_input, result_to_csv, result_to_json
from dtlocus.plant import Plant
from dtlocus.tracer import (
    BranchOrigin,
    CrossingOrigin,
    GainCap,
    LeftRegion,
    PoleOrigin,
    ReachedBranch,
    StepFailure,
    TraceOptions,
    Trajectory,
    run,
)

from oracles import reference_csv, reference_json, reference_polyline_points, rows_array

DEMO = {"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}


def polylines(svg):
    return re.findall(r'<polyline class="trajectory[^"]*" points="([^"]*)"', svg)


def traj(points, marker=None, mirrored=False):
    return Trajectory(PoleOrigin(0) if marker is not None else CrossingOrigin(0),
                      rows_array(points), GainCap(), mirrored=mirrored, start_marker=marker)


@pytest.fixture(scope="module")
def demo():
    plant = parse_input(json.dumps(DEMO).encode())
    return run(plant, RegionSpec(-3.5, 150.0), TraceOptions(negative_gains=True))


def test_demo_plant_writes_the_former_bytes(demo):
    svg = svgplot.render_svg(demo)
    assert len(polylines(svg)) == len(demo.trajectories) + len(demo.negative.trajectories)
    assert polylines(svg) == reference_polyline_points(demo, svgplot)
    assert result_to_csv(demo) == reference_csv(demo)
    assert result_to_json(demo) == reference_json(demo)


def test_pixel_coordinates_either_side_of_zero(demo, monkeypatch):
    # margins beyond the page put pixel 0 inside the data; a fine run of
    # points about it formats to -0.01, -0.00, 0.00 and 0.01
    monkeypatch.setattr(svgplot, "_MARGIN_LEFT", -400.0)
    monkeypatch.setattr(svgplot, "_MARGIN_TOP", -300.0)
    # box: x in [-4, 2] around the data [-3.5, 1.5], y in [-0.1, 1.1]
    x0 = 400.0 / (782.0 + 400.0) * 6.0 - 4.0
    y0 = 554.0 / (554.0 + 300.0) * 1.2 - 0.1
    fine = [(x0 + i * 1e-6, y0 + i * 1e-6, 0.01 * i) for i in range(-40, 41)]
    crafted = dataclasses.replace(
        demo,
        trajectories=(traj([(-3.5, 0.0, -9.0), (1.5, 1.0, -8.0)]),
                      traj([(x, y0, K) for x, _, K in fine]),
                      traj([(x0, y, K) for _, y, K in fine], mirrored=True)),
        negative=None,
    )
    formerly = reference_polyline_points(crafted, svgplot, rewrite=False)
    assert "-0.00" in " ".join(formerly)  # the rewrite has work to do here
    assert polylines(svgplot.render_svg(crafted)) == reference_polyline_points(crafted, svgplot)


def test_box_edges_and_zero_width_box(demo):
    sigma0 = demo.region.sigma0
    edges = dataclasses.replace(
        demo,
        trajectories=(traj([(sigma0, 0.0, -3.0), (2.0, 0.0, -2.0)], marker=-0.5 + 0j),
                      traj([(2.0, -3.0, -1.0), (sigma0, 3.0, 0.0)])),
        negative=dataclasses.replace(
            demo.negative, trajectories=(traj([(-1.0, -0.0, -745.5), (-1.0, 0.0, 1e-300)]),)),
    )
    # every point on the boundary line and the real axis: zero width and height
    flat = dataclasses.replace(
        demo, trajectories=(traj([(sigma0, 0.0, -1.0), (sigma0, 0.0, 2.0)]),), negative=None)
    for res in (edges, flat):
        assert polylines(svgplot.render_svg(res)) == reference_polyline_points(res, svgplot)
        assert result_to_csv(res) == reference_csv(res)
    # the negative pass writes k = -0.0 for a gain that underflows
    assert result_to_csv(edges).splitlines()[-2] == "2,-1,-0,-0"


def test_empty_plot_far_right_keeps_its_box():
    # at sigma0 1e16 the empty plot's x range sigma0 -+ 1 rounds to one
    # double, and a margin of 0.1 rounds away too: that zero span widens by
    # 1e-9 |sigma0| instead, so the box keeps a width and its ticks
    res = run(Plant(1.0, 1.0, (), (-1.0 + 0j,)), RegionSpec(1e16, 1.0))
    assert res.trajectories == () and 1e16 - 1.0 == 1e16 + 1.0
    svg = svgplot.render_svg(res)
    ticks = re.findall(r'<line class="grid" x1="([^"]*)" y1="[^"]*" x2="\1"', svg)
    assert len(ticks) >= 2 and len(set(ticks)) == len(ticks)
    assert "nan" not in svg and "inf" not in svg


def test_mirrored_trajectories_with_and_without_their_original(demo):
    pts = [(-1.0, 0.0, -2.0), (-0.75, 0.25, -1.0), (0.5, -1e-300, 0.5)]
    conj = [(sigma, -omega, K) for sigma, omega, K in pts]
    marker = -0.5 + 0j  # on the real axis: its image is -0.5-0j
    ulp_off = conj[:-1] + [(0.5, 1e-300, 0.5000000000000001)]
    trajectories = (
        traj(conj, mirrored=True),  # no trajectory before it
        traj(pts, marker), traj(conj, marker.conjugate(), mirrored=True),  # an exact image
        traj(pts, marker), traj(conj, marker, mirrored=True),  # marker omega +0.0, not -0.0
        traj(pts), traj(ulp_off, mirrored=True),  # one K an ulp off the original's
        traj(pts), traj(conj[:-1], mirrored=True),  # a point short
        traj([(2.0, 0.0, 1.0)]), traj([(2.0, 0.0, 1.0)], mirrored=True),  # 0.0 is no image of 0.0
        traj([(2.0, 0.0, 1.0)]), traj([(2.0, -0.0, 1.0)], mirrored=True),  # -0.0 is
        traj(pts, mirrored=True), traj(conj, mirrored=True),  # the image of a mirrored one
        traj(pts, mirrored=True),  # and an image of that image, after a reused text
        traj([]), traj([], mirrored=True),  # no points
    )
    crafted = dataclasses.replace(
        demo, trajectories=trajectories,
        negative=dataclasses.replace(demo.negative, trajectories=trajectories[::-1]))
    csv = result_to_csv(crafted)
    assert csv == reference_csv(crafted)
    assert result_to_json(crafted) == reference_json(crafted)
    assert polylines(svgplot.render_svg(crafted)) == reference_polyline_points(crafted, svgplot)
    rows = csv.splitlines()
    # the marker of 2, conjugated, and of 4, not; omega 0.0 at 10 and -0.0 at 12
    assert "2,-0.5,-0,0" in rows and "4,-0.5,0,0" in rows
    assert "10,2,0,2.7182818284590451" in rows and "12,2,-0,2.7182818284590451" in rows


def test_json_refuses_a_non_finite_point(demo):
    crafted = dataclasses.replace(demo, trajectories=(traj([(math.inf, 1.0, 0.0)]),))
    with pytest.raises(ValueError):
        reference_json(crafted)
    with pytest.raises(ValueError):
        result_to_json(crafted)


def test_empty_passes_and_passes_of_mirrored_trajectories(demo):
    pts = [(-1.0, 0.5, -2.0), (-0.75, 0.25, -1.0)]
    conj = [(sigma, -omega, K) for sigma, omega, K in pts]
    # every trajectory mirrored: each second one is its predecessor's image,
    # and a lone mirrored trajectory has none before it
    mirrored = (traj(pts, mirrored=True), traj(conj, mirrored=True),
                traj(pts, mirrored=True), traj(conj, mirrored=True))
    for positive, negative in (((), ()), (mirrored, (traj(conj, mirrored=True),)),
                               ((), mirrored)):
        crafted = dataclasses.replace(
            demo, trajectories=positive,
            negative=dataclasses.replace(demo.negative, trajectories=negative))
        assert result_to_csv(crafted) == reference_csv(crafted)
        assert result_to_json(crafted) == reference_json(crafted)
        assert polylines(svgplot.render_svg(crafted)) == reference_polyline_points(crafted, svgplot)


def test_headers_crossings_and_branch_points_as_json_dumps_writes_them(demo):
    pts = rows_array([(-1.0, 0.5, -2.0), (-0.75, 0.25, -1.0)])
    conj = rows_array([(sigma, -omega, K) for sigma, omega, K in pts.tolist()])
    failed = StepFailure('a "quoted" \\ reason, ω ≠ 0')
    trajectories = (
        Trajectory(BranchOrigin(0, 2.0943951023931953), pts, failed),
        Trajectory(BranchOrigin(1, -2.0943951023931953), conj, ReachedBranch(0), mirrored=True),
        Trajectory(CrossingOrigin(3), pts, LeftRegion(2)),
        Trajectory(PoleOrigin(1), pts, failed, start_marker=-0.5 + 0.5j),
    )
    # a crossing gain that underflows is -0.0 in the negative pass
    crossings = CrossingSet(inward=(BoundaryCrossing(1.5, -800.0),),
                            outward=(BoundaryCrossing(-0.0, 0.5),))
    branch = BranchPoint(-1.0 + 0.5j, -800.0, 2, True)
    crafted = dataclasses.replace(
        demo, trajectories=trajectories, crossings=crossings, branch_points=(branch,),
        negative=dataclasses.replace(demo.negative, trajectories=trajectories[::-1],
                                     crossings=crossings, branch_points=(branch,)))
    text = result_to_json(crafted)
    assert text == reference_json(crafted)
    assert result_to_csv(crafted) == reference_csv(crafted)
    assert '"k": -0.0' in text and '\\u03c9' in text

    # json.dumps(allow_nan=False) refuses a non-finite gain anywhere
    for bad in (math.inf, math.nan):
        for res in (
            dataclasses.replace(crafted, crossings=CrossingSet(
                inward=(BoundaryCrossing(1.5, bad),), outward=())),
            dataclasses.replace(crafted, branch_points=(branch._replace(Kval=bad),)),
            dataclasses.replace(crafted, trajectories=(
                Trajectory(BranchOrigin(0, bad), pts, GainCap()),)),
        ):
            with pytest.raises(ValueError):
                reference_json(res)
            with pytest.raises(ValueError):
                result_to_json(res)
