"""CLI and serialization contracts: parsing both input forms, the JSON/CSV
schemas, SVG content, determinism, and exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dtlocus
from dtlocus import cli, tracer
from dtlocus.cli import main, parse_input, result_to_csv, result_to_json
from dtlocus.errors import InputError, SingularPointError
from dtlocus.plant import Plant
from dtlocus.boundary import RegionSpec
from dtlocus.svgplot import render_svg
from dtlocus.tracer import TraceOptions, run

from oracles import trajectory_rows

P2_COEFF = {"num": [50, -10, 1], "den": [1.25, 4.25, 4, 1], "delay": 1}
P1_ROOTS = {"alpha": 1, "delay": 1, "zeros": [], "poles": [[0, 0]]}


@pytest.fixture()
def p1_path(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(P1_ROOTS))
    return str(path)


@pytest.fixture()
def p2_path(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(P2_COEFF))
    return str(path)


class TestParseInput:
    def test_root_form(self):
        plant = parse_input(json.dumps(P1_ROOTS).encode())
        assert plant == Plant(1.0, 1.0, (), (0j,))

    def test_coefficient_form_matches_factored(self):
        plant = parse_input(json.dumps(P2_COEFF).encode())
        assert plant.alpha == pytest.approx(1.0, abs=1e-12)
        assert plant.delay == 1.0
        assert sorted(z.real for z in plant.zeros) == pytest.approx([5.0, 5.0], abs=1e-9)
        assert sorted(z.imag for z in plant.zeros) == pytest.approx([-5.0, 5.0], abs=1e-9)
        assert sorted(p.real for p in plant.poles) == pytest.approx([-2.5, -1.0, -0.5], abs=1e-9)

    def test_bad_documents(self):
        for doc in (
            b"{nope",
            b"[1,2]",
            json.dumps({"alpha": 1, "delay": 1, "zeros": []}).encode(),
            json.dumps({"num": [1], "delay": 1}).encode(),
            json.dumps({"alpha": 1, "delay": -1, "zeros": [], "poles": [[0, 0]]}).encode(),
            json.dumps({"alpha": 1, "delay": 1, "zeros": [], "poles": [[0, 0, 0]]}).encode(),
            json.dumps({"alpha": 1, "delay": 1, "zeros": [], "poles": [["x", 0]]}).encode(),
            json.dumps({"alpha": 1, "delay": 1, "zeros": [[1, 2]], "poles": [[0, 0]]}).encode(),
            json.dumps({"num": [1, 1], "den": [1], "delay": 1}).encode(),
            b'{"num": [1], "den": [1, 1e400], "delay": 1}',
            b'{"num": [1], "den": [NaN, 1], "delay": 1}',
        ):
            with pytest.raises(InputError):
                parse_input(doc)

    def test_plant_block_round_trip(self):
        plant = Plant(0.375, 0.75, (1 + 2j, 1 - 2j), (-0.5 + 0j, -1.25 + 0j, -3 + 0j))
        res = run(plant, RegionSpec(-0.25, 2.0))
        block = json.loads(result_to_json(res))["plant"]
        assert parse_input(json.dumps(block).encode()) == plant


@pytest.fixture(scope="module")
def res():
    return run(Plant(1.0, 1.0, (), (0j,)), RegionSpec(-2.0, 1.0))


@pytest.fixture(scope="module")
def res_both():
    return run(Plant(1.0, 1.0, (), (0j,)), RegionSpec(-2.0, 1.0),
               TraceOptions(negative_gains=True))


class TestSerialization:
    def test_json_schema(self, res):
        data = json.loads(result_to_json(res))
        assert set(data) == {"plant", "region", "crossings", "branch_points",
                             "trajectories", "warnings"}
        assert data["region"] == {"sigma0": -2.0, "kmax": 1.0}
        assert set(data["crossings"]) == {"inward", "outward"}
        assert data["crossings"]["inward"][0]["k"] == pytest.approx(2 * math.exp(-2), rel=1e-12)
        (bp,) = data["branch_points"]
        assert bp["re"] == -1.0 and bp["im"] == 0.0
        assert bp["k"] == pytest.approx(math.exp(-1), rel=1e-12)
        assert bp["multiplicity"] == 2 and bp["active"] is True
        assert len(data["trajectories"]) == 4
        for t in data["trajectories"]:
            assert set(t) == {"origin", "termination", "mirrored", "points"}
            ks = [row[2] for row in t["points"]]
            assert ks == sorted(ks)

    def test_pole_trajectory_leads_with_gain_zero(self, res):
        data = json.loads(result_to_json(res))
        pole_trajs = [t for t in data["trajectories"] if t["origin"]["type"] == "pole"]
        assert pole_trajs and all(t["points"][0][2] == 0 for t in pole_trajs)
        assert pole_trajs[0]["points"][0][:2] == [0, 0]

    def test_csv_contract(self, res):
        text = result_to_csv(res)
        lines = text.splitlines()
        assert lines[0] == "traj_id,sigma,omega,k"
        rows = [l.split(",") for l in lines[1:]]
        assert all(len(r) == 4 for r in rows)
        ids = [int(r[0]) for r in rows]
        assert sorted(set(ids)) == [0, 1, 2, 3]
        # values survive a float round trip
        assert float(rows[1][3]) > 0

    def test_numbers_round_trip(self, res_both):
        data = json.loads(result_to_json(res_both))
        assert res_both.branch_points
        for block, r, sign in ((data, res_both, 1.0), (data["negative"], res_both.negative, -1.0)):
            crossings = r.crossings.inward + r.crossings.outward
            assert crossings and r.trajectories
            got = block["crossings"]["inward"] + block["crossings"]["outward"]
            assert [(c["omega"], c["k"]) for c in got] == [(c.omega, sign * c.k) for c in crossings]
            assert [(b["re"], b["im"], b["k"]) for b in block["branch_points"]] == [
                (b.s.real, b.s.imag, sign * b.k) for b in r.branch_points
            ]
            assert [[tuple(row) for row in t["points"]] for t in block["trajectories"]] == [
                trajectory_rows(t, sign) for t in r.trajectories
            ]

    def test_csv_rows_equal_json_points(self, res_both):
        data = json.loads(result_to_json(res_both))
        trajs = data["trajectories"] + data["negative"]["trajectories"]
        expected = [[tid] + row for tid, t in enumerate(trajs) for row in t["points"]]
        rows = [line.split(",") for line in result_to_csv(res_both).splitlines()[1:]]
        assert [[int(r[0])] + [float(x) for x in r[1:]] for r in rows] == expected

    def test_strict_json(self, res_both):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = result_to_json(res_both)
        assert text.count("\n") == 1 and text.endswith("\n")
        json.loads(text, parse_constant=reject)
        bp = res_both.branch_points[0]._replace(Kval=math.inf)
        with pytest.raises(ValueError):
            result_to_json(dataclasses.replace(res_both, branch_points=(bp,)))


class TestSvg:
    def test_marker_counts_and_boundary(self):
        plant = parse_input(json.dumps(P2_COEFF).encode())
        res = run(plant, RegionSpec(-3.5, 5.0))
        svg = render_svg(res)
        assert svg.count('class="pole"') == 3
        assert svg.count('class="zero"') == 2
        assert svg.count('class="branch"') == 1
        assert svg.count('class="boundary"') == 1
        assert 'data-sigma0="-3.5"' in svg
        assert svg.count('class="trajectory"') == len(res.trajectories)
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")

    def test_negative_trajectories_marked(self):
        res = run(Plant(1.0, 1.0, (), (0j,)), RegionSpec(-2.0, 1.0),
                  TraceOptions(negative_gains=True))
        svg = render_svg(res)
        assert svg.count('class="trajectory negative"') == len(res.negative.trajectories)

    def test_deterministic(self):
        plant = Plant(1.0, 0.5, (), (-1 + 1j, -1 - 1j))
        a = render_svg(run(plant, RegionSpec(-2.0, 2.0)))
        b = render_svg(run(plant, RegionSpec(-2.0, 2.0)))
        assert a == b

    def test_empty_result_still_renders(self):
        res = run(Plant(1.0, 1.0, (), (0j,)), RegionSpec(0.5, 0.5))
        svg = render_svg(res)
        assert 'class="boundary"' in svg and svg.count('class="pole"') == 1


class TestMain:
    def test_json_to_stdout(self, p1_path, capsys):
        rc = main([p1_path, "--sigma0", "-2", "--kmax", "1"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["trajectories"]) == 4

    def test_outputs_to_files(self, p2_path, tmp_path):
        out = tmp_path / "out.json"
        svg = tmp_path / "plot.svg"
        rc = main([p2_path, "--sigma0", "-3.5", "--kmax", "5",
                   "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["branch_points"]) == 1
        assert svg.read_text().count('class="pole"') == 3

    def test_deterministic_bytes(self, p2_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main([p2_path, "--sigma0", "-3.5", "--kmax", "5", "--out", str(a)])
        main([p2_path, "--sigma0", "-3.5", "--kmax", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, p1_path, capsys):
        rc = main([p1_path, "--sigma0", "-2", "--kmax", "1", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "traj_id,sigma,omega,k"

    def test_negative_gains_flag(self, p1_path, capsys):
        rc = main([p1_path, "--sigma0", "-2", "--kmax", "1", "--negative-gains"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert all(c["k"] < 0 for c in data["negative"]["crossings"]["inward"])

    def test_branch_point_beyond_double_range(self, tmp_path, capsys):
        # the negative-gain branch point near s = 801 has ln k near 808
        path = tmp_path / "far.json"
        path.write_text(json.dumps(
            {"alpha": 1, "delay": 1, "zeros": [[800, 0]], "poles": [[-1, 0], [-2, 0]]}
        ))
        rc = main([str(path), "--sigma0", "-0.5", "--kmax", "2", "--negative-gains"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert "negative" in data

    def test_readme_demo_command(self, tmp_path):
        demo = tmp_path / "demo.json"
        demo.write_text(json.dumps({"alpha": 1.0, "delay": 1.0, "zeros": [[5, 5], [5, -5]],
                                    "poles": [[-0.5, 0], [-1, 0], [-2.5, 0]]}))
        src = str(Path(dtlocus.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "dtlocus", str(demo), "--sigma0", "-3.5", "--kmax", "5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert len(data["crossings"]["inward"]) == 27
        assert len(data["crossings"]["outward"]) == 1
        (bp,) = data["branch_points"]
        assert bp["re"] == pytest.approx(-0.69762, abs=5e-6) and bp["im"] == 0.0
        assert bp["k"] == pytest.approx(9.33e-4, rel=1e-3)
        assert bp["multiplicity"] == 2
        assert len(data["trajectories"]) == 59

    def test_exit_2_on_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 1, "delay": -1, "zeros": [], "poles": [[0, 0]]}))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([str(bad), "--sigma0", "-2", "--kmax", "1"])
        assert rc == 2
        assert "delay" in err.getvalue()

    @pytest.mark.parametrize("doc", [
        # an integer literal too large for a double, in each field it may take
        '{"num": [1%s], "den": [1, 1], "delay": 1}',
        '{"num": [1], "den": [1, 1%s], "delay": 1}',
        '{"num": [1], "den": [1, 1], "delay": 1%s}',
        '{"alpha": 1%s, "delay": 1, "zeros": [], "poles": [[-1, 0]]}',
        '{"alpha": 1, "delay": 1%s, "zeros": [], "poles": [[-1, 0]]}',
        '{"alpha": 1, "delay": 1, "zeros": [[-1%s, 0]], "poles": [[-1, 0]]}',
        '{"alpha": 1, "delay": 1, "zeros": [], "poles": [[-1, 1%s]]}',
    ])
    def test_exit_2_on_integer_beyond_double_range(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc % ("0" * 400))
        with pytest.raises(InputError, match="too large"):
            parse_input(bad.read_bytes())
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([str(bad), "--sigma0", "-2", "--kmax", "1"])
        assert rc == 2
        assert "too large for a double" in err.getvalue()

    @pytest.mark.parametrize("doc, message", [
        # a scalar field that is not a number
        ({"alpha": "1", "delay": 1, "zeros": [], "poles": [[-1, 0]]}, "field 'alpha' must be a number"),
        ({"num": [1], "den": [1, 1], "delay": True}, "field 'delay' must be a number"),
        # a pair field that is not a list
        ({"alpha": 1, "delay": 1, "zeros": {}, "poles": [[-1, 0]]},
         "field 'zeros' must be a list of [re, im] pairs"),
        ({"alpha": 1, "delay": 1, "zeros": [], "poles": "[[-1, 0]]"},
         "field 'poles' must be a list of [re, im] pairs"),
        # a coefficient list that is empty, not a list or holds a non-number
        ({"num": [], "den": [1, 1], "delay": 1}, "field 'num' must be a non-empty list of numbers"),
        ({"num": 1, "den": [1, 1], "delay": 1}, "field 'num' must be a non-empty list of numbers"),
        ({"num": [1], "den": [1, "1"], "delay": 1}, "field 'den' must be a non-empty list of numbers"),
        ({"num": [1], "den": [1, True], "delay": 1}, "field 'den' must be a non-empty list of numbers"),
        # a root beyond double range, and a zero denominator
        ({"alpha": 1, "delay": 1, "zeros": [], "poles": [[1e400, 0]]}, "zeros/poles must be finite"),
        ({"num": [1], "den": [0, 0], "delay": 1}, "denominator is the zero polynomial"),
    ])
    def test_exit_2_on_malformed_field(self, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # 1e400 is written as Infinity, parsed back to inf
        with pytest.raises(InputError, match=re.escape(message)):
            parse_input(bad.read_bytes())
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([str(bad), "--sigma0", "-2", "--kmax", "1"])
        assert rc == 2
        assert err.getvalue().startswith(f"dtlocus: error: {message}")

    def test_exit_2_on_unbounded_gain_cap_region(self, tmp_path):
        # 1/(s+1) with delay 1: K(omega) passes ln 1e300 nowhere below the
        # omega search's limit of 1e12
        message = "gain cap region unbounded in omega; kmax too large"
        with pytest.raises(InputError, match=re.escape(message)):
            run(Plant(1.0, 1.0, (), (-1 + 0j,)), RegionSpec(-0.5, 1e300))
        doc = tmp_path / "lag.json"
        doc.write_text(json.dumps({"alpha": 1, "delay": 1, "zeros": [], "poles": [[-1, 0]]}))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([str(doc), "--sigma0", "-0.5", "--kmax", "1e300"])
        assert rc == 2
        assert err.getvalue().startswith(f"dtlocus: error: {message}")

    @pytest.mark.parametrize("sigma0, rc", [("1e20", 0), ("1e100", 0), ("1e200", 2),
                                            ("1e300", 2)])
    def test_far_right_sigma0(self, tmp_path, sigma0, rc):
        # 1/(s+1) with delay 1: past about 1e154 the squared distances of the
        # boundary line's rows overflow, which is an input error naming sigma0
        doc = tmp_path / "lag.json"
        doc.write_text(json.dumps({"alpha": 1, "delay": 1, "zeros": [], "poles": [[-1, 0]]}))
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            assert main([str(doc), "--sigma0", sigma0, "--kmax", "1"]) == rc
        if rc:
            assert err.getvalue().startswith("dtlocus: error: sigma0 = ")
        else:
            assert err.getvalue() == ""

    @pytest.mark.parametrize("doc", [
        {"num": [1], "den": [1, 1e-320], "delay": 1},
        {"num": [1, 1e-320], "den": [1, 1], "delay": 1},
    ])
    def test_exit_2_on_subnormal_leading_coefficient(self, tmp_path, doc):
        # the monic polynomial's coefficients overflow: its roots lie beyond
        # double range
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([str(bad), "--sigma0", "-2", "--kmax", "1"])
        assert rc == 2
        assert "leading coefficient" in err.getvalue()

    def test_exit_2_on_missing_file(self, tmp_path):
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main([str(tmp_path / "absent.json"), "--sigma0", "-2", "--kmax", "1"])
        assert rc == 2

    def test_exit_2_on_unwritable_out(self, p1_path, tmp_path):
        out = tmp_path / "absent" / "out.json"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([p1_path, "--sigma0", "-2", "--kmax", "1", "--out", str(out)])
        assert rc == 2
        assert err.getvalue().startswith("dtlocus: error: ") and not out.exists()

    def test_exit_2_on_any_package_error(self, p1_path, monkeypatch):
        # every DtLocusError is an input or validation error to the CLI
        def raising(*args):
            raise SingularPointError("evaluation at a pole")

        monkeypatch.setattr(cli, "run", raising)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([p1_path, "--sigma0", "-2", "--kmax", "1"])
        assert rc == 2
        assert err.getvalue() == "dtlocus: error: evaluation at a pole\n"

    def test_exit_2_on_boundary_pole(self, p1_path):
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main([p1_path, "--sigma0", "0", "--kmax", "1"])
        assert rc == 2

    def test_exit_2_on_branch_on_boundary(self, p1_path):
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main([p1_path, "--sigma0", "-1", "--kmax", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_exit_2_on_bad_step_option(self, p1_path, flag, value):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([p1_path, "--sigma0", "-2", "--kmax", "1", flag, value])
        assert rc == 2
        assert "tolerance" in err.getvalue()

    def test_exit_3_strict_step_failure_still_writes(self, p1_path, tmp_path, monkeypatch):
        # a two-step budget stops every trajectory short of its end
        monkeypatch.setattr(tracer, "MAX_STEPS", 2)
        out = tmp_path / "out.json"
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main([p1_path, "--sigma0", "-2", "--kmax", "1",
                       "--strict", "--out", str(out)])
        assert rc == 3
        data = json.loads(out.read_text())
        assert any(t["termination"]["type"] == "step_failure" for t in data["trajectories"])

    def test_strict_exits_zero_without_step_failures(self, p1_path, capsys):
        # no negative pass to look through, and no step failure in the one run
        assert not cli._has_step_failure(run(Plant(1.0, 1.0, (), (0j,)), RegionSpec(-2.0, 1.0)))
        rc = main([p1_path, "--sigma0", "-2", "--kmax", "1", "--strict"])
        assert rc == 0
        assert '"step_failure"' not in capsys.readouterr().out

    def test_unstrict_step_failure_exits_zero(self, p1_path, capsys, monkeypatch):
        monkeypatch.setattr(tracer, "MAX_STEPS", 2)
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main([p1_path, "--sigma0", "-2", "--kmax", "1"])
        assert rc == 0
        assert '"step_failure"' in capsys.readouterr().out
