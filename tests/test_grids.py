"""Grid containers and central-difference operators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbk.grids import (
    GridFunction,
    GridSpec,
    derivative,
    grid_norm,
    same_grid,
    second_derivative,
)


def test_over_spans_interval_inclusively():
    g = GridSpec.over(-1.0, 3.0, 9)
    assert g.points[0] == -1.0
    assert g.points[-1] == pytest.approx(3.0)
    assert g.dx == pytest.approx(0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec.over(1.0, 1.0, 11)
    with pytest.raises(ValueError):
        GridSpec.over(0.0, 1.0, 5)  # below the 9-sample minimum
    with pytest.raises(ValueError):
        GridSpec(0.0, -0.1, 11)
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.1, np.ones((3, 3)).ravel()[:4])


def test_sample_and_interior():
    g = GridSpec.over(0.0, 1.0, 11)
    f = g.sample(np.cos)
    assert f.n == 11
    np.testing.assert_allclose(f.x, g.points)
    inner = f.interior(1)
    assert inner.n == 9
    assert inner.x0 == pytest.approx(0.1)
    np.testing.assert_array_equal(inner.samples, f.samples[1:-1])
    assert f.interior(0) is f


def test_spec_interior_matches_function_interior():
    g = GridSpec.over(-2.0, 2.0, 41)
    assert g.interior(3).points == pytest.approx(g.points[3:-3])


def test_trimmed_points_are_the_parent_points():
    g = GridSpec.over(-2.0, 2.0, 32001)
    f = g.sample(np.sin)
    once = derivative(f)
    twice = second_derivative(once)
    for k, trimmed in ((1, once), (2, twice), (2, f.interior(2)), (3, g.interior(3))):
        points = trimmed.points if isinstance(trimmed, GridSpec) else trimmed.x
        np.testing.assert_array_equal(points, g.points[k:-k])
        assert trimmed.origin == g.origin and trimmed.offset == k
        assert trimmed.x0 == g.origin + k * g.dx
    assert f.interior(2).spec == g.interior(2)


def test_derivative_of_sine():
    g = GridSpec.over(0.0, math.pi, 2001)
    d = derivative(g.sample(np.sin))
    np.testing.assert_allclose(d.samples, np.cos(d.x), atol=5e-7)
    assert d.n == 1999
    assert d.x0 == pytest.approx(g.dx)


def test_second_derivative_of_sine():
    g = GridSpec.over(0.0, math.pi, 2001)
    d2 = second_derivative(g.sample(np.sin))
    np.testing.assert_allclose(d2.samples, -np.sin(d2.x), atol=5e-7)


def test_derivative_converges_at_second_order():
    errs = []
    for n in (201, 401, 801):
        g = GridSpec.over(0.0, 1.0, n)
        d = derivative(g.sample(np.exp))
        errs.append(np.max(np.abs(d.samples - np.exp(d.x))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(2.0, abs=0.1)
    assert order2 == pytest.approx(2.0, abs=0.1)


@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    c=st.floats(-2, 2),
)
def test_central_difference_exact_on_quadratics(a, b, c):
    g = GridSpec.over(-1.0, 1.0, 21)
    f = g.sample(lambda x: a + b * x + c * x * x)
    d = derivative(f)
    np.testing.assert_allclose(d.samples, b + 2 * c * d.x, atol=1e-10)
    d2 = second_derivative(f)
    np.testing.assert_allclose(d2.samples, 2 * c, atol=1e-9)


def test_grid_norm():
    g = GridSpec.over(0.0, 1.0, 101)
    f = g.sample(lambda x: np.ones_like(x))
    # dx * n slightly exceeds the interval length for an inclusive grid
    assert grid_norm(f) == pytest.approx(math.sqrt(0.01 * 101))


def test_grid_norm_complex():
    g = GridSpec.over(0.0, 1.0, 101)
    f = g.sample(lambda x: 1j * np.ones_like(x))
    assert grid_norm(f) == pytest.approx(math.sqrt(0.01 * 101))


def test_same_grid():
    g = GridSpec.over(0.0, 1.0, 11)
    f1 = g.sample(np.sin)
    f2 = g.sample(np.cos)
    assert same_grid(f1, f2)
    assert not same_grid(f1, f1.interior(1))
    shifted = GridFunction(0.5, f1.dx, f1.samples)
    assert not same_grid(f1, shifted)


def test_with_samples_keeps_coordinates():
    g = GridSpec.over(0.0, 1.0, 11)
    f = g.sample(np.sin)
    g2 = f.with_samples(2.0 * f.samples)
    assert g2.x0 == f.x0 and g2.dx == f.dx
    np.testing.assert_array_equal(g2.samples, 2.0 * f.samples)
