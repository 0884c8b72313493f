"""Trajectory dedup against the pairwise reference scan.

tracer._dedup compares the pairs of endpoints in a window of omega;
oracles.pairwise_dedup compares every pair.  Both must keep exactly the same trajectories, in the same order.
"""

import numpy as np
import pytest

from dtlocus import tracer
from dtlocus.boundary import RegionSpec
from dtlocus.continuation import LocusPoint
from dtlocus.tracer import (
    CrossingOrigin,
    GainCap,
    LeftRegion,
    ReachedBranch,
    StepFailure,
    Trajectory,
    _dedup,
    run,
)
from oracles import pairwise_dedup, rows_array

CELL = 2e-8  # grid cell of a former tracer._dedup: its edges stay a test case


def traj(end, n=3, term=None, tag=0):
    """A trajectory of n points ending at end = (sigma, omega, K)."""
    last = LocusPoint(*end)
    pts = [(last.sigma, last.omega, last.Kval - (n - 1 - i)) for i in range(n)]
    return Trajectory(CrossingOrigin(tag), rows_array(pts), term if term is not None else GainCap())


def kept(trajectories):
    return [t.origin.index for t in _dedup(trajectories)]


def assert_matches_oracle(trajectories):
    got = _dedup(trajectories)
    want = pairwise_dedup(trajectories)
    assert [id(t) for t in got] == [id(t) for t in want]
    return got


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("offset,dropped", [(0.5e-8, True), (1e-8, True), (1.5e-8, False)])
@pytest.mark.parametrize("base", [0.0, -1e-8, 0.37, -2.25])
def test_separation_threshold(axis, offset, dropped, base):
    a = [base, base, base]
    b = list(a)
    b[axis] += offset
    ts = [traj(a, 3, tag=0), traj(b, 3, tag=1)]
    got = assert_matches_oracle(ts)
    if base == 0.0 or base == -1e-8:
        # sums exact in binary, so the separation is exactly the offset
        assert len(got) == (1 if dropped else 2)


@pytest.mark.parametrize("edge", [0, 1, 5, -1, -5, 1234567])
def test_endpoints_straddling_cell_edges(edge):
    x = edge * CELL
    ts = []
    for k, d in enumerate([-0.6e-8, -0.3e-8, -1e-12, 0.0, 1e-12, 0.3e-8, 0.6e-8]):
        ts.append(traj((x + d, -x - d, 0.5 * x + d), n=2 + k % 3, tag=k))
    got = assert_matches_oracle(ts)
    assert len(got) < len(ts)


def test_cluster_longest_survives():
    # three mutual duplicates: i=0 loses to the longer j=1, j=1 beats j=2
    ts = [traj((1.0, 2.0, 0.0), 3, tag=0),
          traj((1.0 + 3e-9, 2.0, 0.0), 5, tag=1),
          traj((1.0, 2.0 - 3e-9, 0.0), 4, tag=2)]
    assert kept(ts) == [1]
    assert_matches_oracle(ts)


def test_cluster_tie_drops_later():
    ts = [traj((0.0, 0.0, 0.0), 4, tag=k) for k in range(4)]
    assert kept(ts) == [0]
    assert_matches_oracle(ts)


def test_chain_is_order_dependent_greedy():
    # 0~1 and 1~2 but 0 and 2 are 1.6e-8 apart: once 1 drops, 2 survives
    ts = [traj((0.0, 0.0, 0.0), 5, tag=0),
          traj((0.8e-8, 0.0, 0.0), 2, tag=1),
          traj((1.6e-8, 0.0, 0.0), 3, tag=2)]
    assert kept(ts) == [0, 2]
    assert_matches_oracle(ts)


def test_dropped_i_keeps_dropping_later_candidates():
    # 0 loses to 1 but still knocks out the shorter 2
    ts = [traj((0.0, 0.0, 0.0), 3, tag=0),
          traj((0.9e-8, 0.0, 0.0), 6, tag=1),
          traj((-0.9e-8, 0.0, 0.0), 2, tag=2)]
    assert kept(ts) == [1]
    assert_matches_oracle(ts)


def test_mixed_termination_types_kept():
    end = (-0.5, 1.25, 0.75)
    ts = [traj(end, 3, GainCap(), tag=0),
          traj(end, 3, LeftRegion(0), tag=1),
          traj(end, 3, LeftRegion(2), tag=2),
          traj(end, 3, StepFailure("x"), tag=3)]
    # the two LeftRegion ends are one type, whatever they matched
    assert kept(ts) == [0, 1, 3]
    assert_matches_oracle(ts)


def test_reached_branch_never_dropped():
    end = (-1.0, 0.0, -1.0)
    ts = [traj(end, 2, ReachedBranch(0), tag=0),
          traj(end, 5, ReachedBranch(0), tag=1),
          traj(end, 9, GainCap(), tag=2),
          traj(end, 3, ReachedBranch(1), tag=3),
          traj(end, 1, GainCap(), tag=4)]
    assert kept(ts) == [0, 1, 2, 3]
    assert_matches_oracle(ts)


def test_random_clusters():
    rng = np.random.RandomState(11)
    terms = [GainCap(), LeftRegion(0), StepFailure("x"), ReachedBranch(0)]
    centers = rng.uniform(-3.0, 3.0, size=(6, 3))
    for _ in range(20):
        ts = []
        for k in range(60):
            c = centers[rng.randint(len(centers))]
            off = rng.randint(-6, 7, size=3) * 0.25e-8
            ts.append(traj(tuple(c + off), n=1 + rng.randint(4),
                           term=terms[rng.randint(len(terms))], tag=k))
        assert_matches_oracle(ts)


def test_empty_and_single():
    assert _dedup([]) == []
    t = traj((0.0, 0.0, 0.0))
    assert _dedup([t]) == [t]


def test_demo_run_matches_oracle(p2, monkeypatch):
    seen = []
    real = tracer._dedup

    def spy(trajectories):
        seen.append(list(trajectories))
        return real(trajectories)

    monkeypatch.setattr(tracer, "_dedup", spy)
    run(p2, RegionSpec(-3.5, 50.0))
    (ts,) = seen
    assert len(ts) > 100
    assert_matches_oracle(ts)
