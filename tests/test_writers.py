"""Byte-for-byte agreement of the SVG polylines and the CSV rows with the
former per-point formatting kept in oracles.py, on the demo plant and on
crafted results: pixel coordinates either side of 0.00 (where the former
formatting turned "-0.00" into "0.00"), points on the edges of the plot box,
and a box of zero width and height."""

import dataclasses
import json
import re

import pytest

from dtlocus import svgplot
from dtlocus.boundary import RegionSpec
from dtlocus.cli import parse_input, result_to_csv
from dtlocus.continuation import LocusPoint
from dtlocus.tracer import CrossingOrigin, GainCap, PoleOrigin, TraceOptions, Trajectory, run

from oracles import reference_csv, reference_polyline_points

DEMO = {"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}


def polylines(svg):
    return re.findall(r'<polyline class="trajectory[^"]*" points="([^"]*)"', svg)


def traj(points, marker=None, mirrored=False):
    return Trajectory(PoleOrigin(0) if marker is not None else CrossingOrigin(0),
                      tuple(LocusPoint(*p) for p in points), GainCap(),
                      mirrored=mirrored, start_marker=marker)


@pytest.fixture(scope="module")
def demo():
    plant = parse_input(json.dumps(DEMO).encode())
    return run(plant, RegionSpec(-3.5, 150.0), TraceOptions(negative_gains=True))


def test_demo_plant_writes_the_former_bytes(demo):
    svg = svgplot.render_svg(demo)
    assert len(polylines(svg)) == len(demo.trajectories) + len(demo.negative.trajectories)
    assert polylines(svg) == reference_polyline_points(demo, svgplot)
    assert result_to_csv(demo) == reference_csv(demo)


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
