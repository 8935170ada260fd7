"""Tests for bracketed root inversion of monotone functions."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qmotion.rootfind import (
    BracketError,
    RootConvergenceError,
    invert_monotone,
)


def test_cubic_inverse():
    x = invert_monotone(lambda u: u ** 3, 8.0, (0.0, 5.0))
    assert x == pytest.approx(2.0, abs=1e-12)


def test_decreasing_function():
    x = invert_monotone(lambda u: -u + 1.0, 0.25, (-2.0, 3.0))
    assert x == pytest.approx(0.75, abs=1e-12)


def test_target_at_endpoint():
    x = invert_monotone(lambda u: u, 4.0, (0.0, 4.0))
    assert x == pytest.approx(4.0)


def test_unbracketed_target_raises():
    with pytest.raises(BracketError):
        invert_monotone(lambda u: u, 10.0, (0.0, 1.0))


def test_tolerance_is_honoured():
    f = lambda u: math.sinh(u)
    x = invert_monotone(f, 1.0, (0.0, 3.0))
    assert abs(f(x) - 1.0) < 1e-13


@given(st.floats(-0.9, 0.9), st.floats(0.05, 2.0))
@settings(deadline=None, max_examples=100)
def test_roundtrip_property(x_true, scale):
    """invert_monotone(f, f(x)) recovers x for a strictly increasing f."""
    f = lambda u: scale * u + 0.1 * math.atan(u)
    y = f(x_true)
    x = invert_monotone(f, y, (-1.0, 1.0))
    assert x == pytest.approx(x_true, abs=1e-10)


@pytest.mark.parametrize("f,target,bracket", [
    (math.sinh, 1.0, (0.0, 3.0)),
    (lambda u: u ** 3 - 2.0 * u, 1.0, (1.0, 3.0)),
    (lambda u: 0.3 - 0.7 * u, -0.1, (-2.0, 5.0)),
])
def test_bisection_ends_at_the_best_float(f, target, bracket):
    """No float next to the returned x has a smaller residual."""
    x = invert_monotone(f, target, bracket)
    r = abs(f(x) - target)
    assert r <= abs(f(math.nextafter(x, -math.inf)) - target)
    assert r <= abs(f(math.nextafter(x, math.inf)) - target)


def test_exact_midpoint_hit_is_returned():
    calls = []

    def f(u):
        calls.append(u)
        return u

    assert invert_monotone(f, 0.5, (0.0, 1.0)) == 0.5
    assert calls == [0.0, 1.0, 0.5]


def test_step_function_returns_its_jump():
    jump = 0.3
    x = invert_monotone(lambda u: 1.0 if u >= jump else -1.0, 0.0, (0.0, 1.0))
    assert x in (jump, math.nextafter(jump, -math.inf))
