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
    multiply_exponential,
    row_norm,
    second_derivative,
    shared_mode_tables,
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


def test_block_rows_match_single_functions():
    g = GridSpec.over(-2.0, 2.0, 401)
    fns = (np.sin, np.cos, np.exp, lambda x: x**3 - x)
    block = g.sample(lambda x: np.array([fn(x) for fn in fns]))
    assert block.samples.shape == (len(fns), g.n) and block.n == g.n
    maps = (derivative, second_derivative, lambda f: f.interior(3),
            lambda f: multiply_exponential(f, -0.7))
    for i, fn in enumerate(fns):
        single = g.sample(fn)
        for op in maps:
            out, alone = op(block), op(single)
            assert (out.x0, out.dx, out.n) == (alone.x0, alone.dx, alone.n)
            np.testing.assert_array_equal(out.samples[i], alone.samples)
        assert row_norm(block.samples[i], block.dx) == row_norm(single.samples, single.dx)
    with pytest.raises(ValueError, match="dimensional"):
        GridFunction(0.0, 0.1, np.ones((2, 2, 9)))


def test_derivative_of_sine():
    g = GridSpec.over(0.0, math.pi, 2001)
    d = derivative(g.sample(np.sin))
    np.testing.assert_allclose(d.samples, np.cos(d.x), atol=1e-12)
    assert d.n == 1993
    assert d.x0 == pytest.approx(4.0 * g.dx)


def test_second_derivative_of_sine():
    g = GridSpec.over(0.0, math.pi, 2001)
    d2 = second_derivative(g.sample(np.sin))
    np.testing.assert_allclose(d2.samples, -np.sin(d2.x), atol=5e-7)


def test_derivative_converges_at_eighth_order():
    # the error at x = 1, a point of every grid: 6.7e-8, 2.6e-10 and 1.0e-12
    # at steps 1/4, 1/8 and 1/16. At step 1/32 it reaches rounding, about 3e-15
    errs = []
    for n in (17, 33, 65):
        g = GridSpec.over(-1.0, 3.0, n)
        d = derivative(g.sample(np.exp))
        k = round((1.0 - d.x0) / d.dx)
        assert d.x[k] == pytest.approx(1.0, abs=1e-12)
        errs.append(abs(d.samples[k] - math.e))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(8.0, abs=0.05)
    assert order2 == pytest.approx(8.0, abs=0.05)


@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    c=st.floats(-2, 2),
    e=st.floats(-2, 2),
    q=st.floats(-2, 2),
    v=st.floats(-2, 2),
    z=st.floats(-2, 2),
    t=st.floats(-2, 2),
    y=st.floats(-2, 2),
)
def test_central_difference_exact_on_quadratics(a, b, c, e, q, v, z, t, y):
    g = GridSpec.over(-1.0, 1.0, 21)
    f = g.sample(lambda x: a + b * x + c * x * x)
    d = derivative(f)
    np.testing.assert_allclose(d.samples, b + 2 * c * d.x, atol=1e-10)
    d2 = second_derivative(f)
    np.testing.assert_allclose(d2.samples, 2 * c, atol=1e-9)
    # the nine-point first derivative is exact on every polynomial of degree 8
    d = derivative(f.with_samples(f.samples + e * f.x**3 + q * f.x**4 + v * f.x**5
                                  + z * f.x**6 + t * f.x**7 + y * f.x**8))
    np.testing.assert_allclose(d.samples, b + 2 * c * d.x + 3 * e * d.x**2 + 4 * q * d.x**3
                               + 5 * v * d.x**4 + 6 * z * d.x**5 + 7 * t * d.x**6
                               + 8 * y * d.x**7, atol=1e-10)


def test_grid_norm():
    g = GridSpec.over(0.0, 1.0, 101)
    f = g.sample(lambda x: np.ones_like(x))
    # dx * n slightly exceeds the interval length for an inclusive grid
    assert row_norm(f.samples, f.dx) == pytest.approx(math.sqrt(0.01 * 101))


def test_grid_norm_complex():
    g = GridSpec.over(0.0, 1.0, 101)
    f = g.sample(lambda x: 1j * np.ones_like(x))
    assert row_norm(f.samples, f.dx) == pytest.approx(math.sqrt(0.01 * 101))


def test_with_samples_keeps_coordinates():
    g = GridSpec.over(0.0, 1.0, 11)
    f = g.sample(np.sin)
    g2 = f.with_samples(2.0 * f.samples)
    assert g2.x0 == f.x0 and g2.dx == f.dx
    np.testing.assert_array_equal(g2.samples, 2.0 * f.samples)


@pytest.mark.parametrize("rows", [1, 11])
def test_row_by_row_norm_equals_whole_block_formula(rows):
    rng = np.random.default_rng(rows)
    g = GridSpec.over(-1.0, 1.0, 1001)
    for samples in (rng.standard_normal((rows, g.n)),
                    rng.standard_normal((rows, g.n)) + 1j * rng.standard_normal((rows, g.n))):
        f = GridFunction(g.x0, g.dx, samples).interior(2)  # a strided view, as an output's
        whole = np.sqrt(f.dx * np.sum(np.square(np.abs(f.samples)), axis=-1))
        np.testing.assert_array_equal([row_norm(row, f.dx) for row in f.rows()], whole)


def counted_table(calls):
    """A mode_table stand-in, x times the row index, that records (n_max, size)."""

    def mode_table(params, n_max, x):
        calls.append((n_max, np.size(x)))
        return np.multiply.outer(np.arange(n_max + 1.0), np.asarray(x, dtype=float))

    return mode_table


class TestSharedModeTables:
    GRID = GridSpec.over(-2.0, 2.0, 401)

    def test_interior_points_read_the_grid_table(self):
        calls = []
        tables = shared_mode_tables(counted_table(calls), None, self.GRID)
        f = self.GRID.sample(np.sin)
        full = tables(5, f.x)
        for inner in (derivative(f), derivative(derivative(f)), f.interior(7)):
            k = (self.GRID.n - inner.n) // 2
            part = tables(5, inner.x)
            np.testing.assert_array_equal(part, full[:, k:-k])  # the grid's own points
            np.testing.assert_allclose(part, np.arange(6.0)[:, None] * inner.x,
                                       rtol=0.0, atol=1e-13)
        assert calls == [(5, self.GRID.n)]

    def test_points_off_the_grid_get_their_own_table(self):
        calls = []
        tables = shared_mode_tables(counted_table(calls), None, self.GRID)
        x = self.GRID.points
        for other in (x[1:-1] + 0.5 * self.GRID.dx, x[2:-2:2], x[1:-1] * (1.0 + 1e-9)):
            tables(3, other)
        assert [n for n, _ in calls] == [3, 3, 3]

    def test_more_rows_replace_the_table(self):
        calls = []
        tables = shared_mode_tables(counted_table(calls), None, self.GRID)
        x = self.GRID.points
        first = tables(2, x)
        assert tables(4, x[3:-3]).shape == (5, self.GRID.n - 6)
        assert tables(1, x).shape == (2, self.GRID.n)
        assert calls == [(2, self.GRID.n), (4, self.GRID.n)]
        assert not first.flags.writeable
