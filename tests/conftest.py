import pytest

from dtlocus import continuation, tracer
from dtlocus.plant import Plant


@pytest.fixture
def p1():
    """Integrator with unit delay: 1/s."""
    return Plant(1.0, 1.0, (), (0j,))


@pytest.fixture
def p2():
    """Three real poles, complex zero pair: (s^2-10s+50)/((s+0.5)(s+1)(s+2.5))."""
    return Plant(1.0, 1.0, (5 + 5j, 5 - 5j), (-0.5 + 0j, -1 + 0j, -2.5 + 0j))


@pytest.fixture
def p3():
    """Underdamped pair, half-unit delay: 1/(s^2+2s+2)."""
    return Plant(1.0, 0.5, (), (-1 + 1j, -1 - 1j))


@pytest.fixture
def step_bounds(monkeypatch):
    """step_bounds(h0, h_max) sets the step-bound constants H0 and H_MAX
    wherever the program reads them, for the rest of the test."""
    def set_bounds(h0, h_max):
        for module in (continuation, tracer):
            monkeypatch.setattr(module, "H0", h0)
            monkeypatch.setattr(module, "H_MAX", h_max)
    return set_bounds
