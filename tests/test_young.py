import math
import re

import numpy as np
import pytest

from besov_rough._rng import rng_for
from besov_rough.errors import NonContractionError, RegimeError
from besov_rough.grid import GridPath, UniformGrid
from besov_rough.norms import INF, BesovParams, besov_seminorm
from besov_rough.sewing import sew
from besov_rough.signals import heaviside, smooth_random
from besov_rough.young import (
    VectorField,
    YoungRegime,
    besov_composition_check,
    ito_lyons_probe_young,
    linear_field,
    product_germ,
    rotation_field,
    scalar_linear_field,
    sigmoid_field,
    young_integral,
    young_ode_solve,
)

SMOOTH = BesovParams(0.9, INF, INF)


def _grid(level=10):
    return UniformGrid(1.0, level)


def _path(fn, level=10):
    g = _grid(level)
    return GridPath(g, fn(g.times()))


# -- regime bookkeeping ---------------------------------------------------------

def test_young_regime_cases():
    a = YoungRegime(BesovParams(0.9, INF, INF), BesovParams(0.9, INF, INF))
    assert a.case == "a" and a.gamma == pytest.approx(1.8)
    b = YoungRegime(BesovParams(0.5, 2.0, INF), BesovParams(0.5, INF, 1.0))
    assert b.case == "b" and b.p2 == 2.0 and b.q2 == 1.0
    with pytest.raises(RegimeError):
        YoungRegime(BesovParams(0.4, 8.0, 8.0), BesovParams(0.4, 8.0, 8.0)).case
    # gamma within 1e-12 of max(1, 1/p2) = 1 is the critical case
    for offset in (-4e-13, 4e-13):
        near = YoungRegime(BesovParams(0.5 + offset, INF, 2.0),
                           BesovParams(0.5, INF, 2.0))
        assert near.case == "b"
        out = young_integral(_path(np.sin, 6), _path(np.cos, 6), near)
        assert out.endpoint and out.sewing.input.gamma == 1.0
        with pytest.raises(RegimeError):  # the critical case needs q2 <= 1
            YoungRegime(BesovParams(0.5 + offset, INF, INF),
                        BesovParams(0.5, INF, INF)).case
    assert YoungRegime(BesovParams(0.5 + 2e-12, INF, INF),
                       BesovParams(0.5, INF, INF)).case == "a"


def test_vector_field_validation():
    rng = rng_for(0, "vf")
    for field in (scalar_linear_field(), rotation_field(), sigmoid_field(2, 2)):
        assert field.validate(rng) < 1e-5
    bad = VectorField(
        fun=lambda Y: Y[:, :, None] ** 2,
        dfun=lambda Y: 3.0 * Y[:, :, None, None],  # wrong derivative
        name="broken",
    )
    with pytest.raises(RegimeError):
        bad.validate(rng)


def _looped_validate(field, rng):
    """The check one state at a time: 20 single draws, one-row batches."""
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal(field.state_dim)
        d_exact = field.dfun(y[None])[0]
        for b in range(len(y)):
            e = np.zeros_like(y)
            e[b] = step
            fd = (field.fun((y + e)[None])[0]
                  - field.fun((y - e)[None])[0]) / (2 * step)
            denom = max(1.0, float(np.abs(d_exact[..., b]).max()))
            worst = max(worst, float(np.abs(fd - d_exact[..., b]).max()) / denom)
    return worst


def test_batched_validate_equals_per_state_loop():
    bad = VectorField(
        fun=lambda Y: Y[:, :, None] ** 2,
        dfun=lambda Y: 3.0 * Y[:, :, None, None],  # wrong derivative
        name="broken",
    )
    dense = linear_field(list(rng_for(9, "mats").standard_normal((2, 3, 3))))
    fields = (scalar_linear_field(), rotation_field(), sigmoid_field(2, 2),
              dense, bad)
    for k, field in enumerate(fields):
        looped_rng, rng = rng_for(k, "vf-loop"), rng_for(k, "vf-loop")
        expected = _looped_validate(field, looped_rng)
        if field is bad:
            with pytest.raises(RegimeError,
                               match=re.escape(f"rel err {expected:.2e} ")):
                field.validate(rng)
        else:
            assert field.validate(rng) == expected
        # the (20, m) draw is the stream of 20 single draws
        assert rng.standard_normal() == looped_rng.standard_normal()


@pytest.mark.parametrize("field", [
    scalar_linear_field(), rotation_field(), sigmoid_field(1, 1),
    sigmoid_field(2, 2), sigmoid_field(3, 2),
    linear_field(list(rng_for(8, "mats").standard_normal((3, 3, 3)))),
], ids=["scalar", "rotation", "sigmoid11", "sigmoid22", "sigmoid32", "linear3"])
def test_builtin_rows_equal_one_row_batches(field):
    Y = rng_for(7, "rows").standard_normal((50, field.state_dim))
    for fn in (field.fun, field.dfun, field.d2fun):
        rows = np.stack([fn(Y[k:k + 1])[0] for k in range(len(Y))])
        assert np.array_equal(fn(Y), rows)


def test_missing_second_derivative_is_a_regime_error():
    with pytest.raises(RegimeError, match="second derivative not supplied"):
        VectorField(fun=lambda Y: Y[:, :, None],
                    dfun=lambda Y: np.ones((len(Y), 1, 1, 1))).d2fun(np.ones((2, 1)))


# -- integration ----------------------------------------------------------------

def test_polynomial_integral():
    t = _path(lambda x: x)
    reg = YoungRegime(SMOOTH, SMOOTH)
    out = young_integral(t, t, reg)
    assert abs(out.integral.values[-1, 0] - 0.5) < 2 * t.grid.mesh


def test_sin_dcos_oracle():
    exact = -0.5 + math.sin(2.0) / 4.0
    errs = {}
    for level in (10, 12):
        s = _path(np.sin, level)
        c = _path(np.cos, level)
        out = young_integral(s, c, YoungRegime(SMOOTH, SMOOTH))
        errs[level] = abs(out.integral.values[-1, 0] - exact)
    assert errs[12] < 1e-4
    assert math.log2(errs[10] / errs[12]) / 2 >= 0.9


def test_heaviside_integrand_case_b():
    # one rough factor: int H dg = g(1) - g(1/2), exact on node-aligned jumps
    g = _grid(12)
    t = g.times()
    h = heaviside(g)
    smooth = GridPath(g, np.sin(2 * t))
    reg = YoungRegime(BesovParams(0.5, 2.0, INF), BesovParams(0.5, INF, 1.0))
    out = young_integral(h, smooth, reg)
    exact = math.sin(2.0) - math.sin(1.0)
    assert abs(out.integral.values[-1, 0] - exact) < 1e-3
    assert out.endpoint
    assert out.remainder_norm < math.inf


def test_young_integral_remainder_norm_is_the_sewing_norm():
    g = _grid(9)
    t = g.times()
    smooth = GridPath(g, np.sin(2 * t))
    for f, reg in [
        (GridPath(g, np.cos(3 * t)), YoungRegime(SMOOTH, SMOOTH)),
        (heaviside(g), YoungRegime(BesovParams(0.5, 2.0, INF),
                                   BesovParams(0.5, INF, 1.0))),
    ]:
        out = young_integral(f, smooth, reg)
        direct = sew(reg.sewing_input(product_germ(f, smooth)))
        assert out.remainder_norm == direct.remainder_norm
        assert np.array_equal(out.integral.values, direct.integral.values)
        assert out.endpoint == direct.input.endpoint


def test_integral_bilinear():
    rng = rng_for(1, "young")
    g = _grid(8)
    f1, f2 = smooth_random(g, rng), smooth_random(g, rng)
    h1 = smooth_random(g, rng)
    reg = YoungRegime(SMOOTH, SMOOTH)
    lhs = young_integral(
        GridPath(g, 2.0 * f1.values - f2.values), h1, reg
    ).integral.values
    rhs = (
        2.0 * young_integral(f1, h1, reg).integral.values
        - young_integral(f2, h1, reg).integral.values
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_integration_by_parts():
    g = _grid(10)
    rng = rng_for(2, "young")
    f = smooth_random(g, rng)
    h = smooth_random(g, rng)
    reg = YoungRegime(SMOOTH, SMOOTH)
    a = young_integral(f, h, reg).integral.values[-1, 0]
    b = young_integral(h, f, reg).integral.values[-1, 0]
    boundary = f.values[-1, 0] * h.values[-1, 0] - f.values[0, 0] * h.values[0, 0]
    # left sums obey the exact discrete identity with the cross variation,
    # which for smooth paths is O(mesh)
    cross = float(np.sum(np.diff(f.values[:, 0]) * np.diff(h.values[:, 0])))
    assert abs(a + b - boundary + cross) < 1e-12
    assert abs(a + b - boundary) <= g.mesh * np.abs(
        np.diff(f.values[:, 0]) / g.mesh
    ).max() * np.abs(np.diff(h.values[:, 0])).sum()


# -- composition ------------------------------------------------------------------

def test_composition_identity():
    g = _grid(8)
    y = smooth_random(g, rng_for(3, "comp"))
    ident = linear_field([np.eye(1)])
    rep = besov_composition_check(ident, y, BesovParams(0.6, 4.0, 2.0), delta=1.0)
    assert rep["ratio"] == pytest.approx(1.0, rel=0.2)  # up to the T-power factor


def test_composition_square():
    g = _grid(8)
    y = smooth_random(g, rng_for(4, "comp"))
    square = VectorField(
        fun=lambda Y: Y[:, :, None] ** 2,
        dfun=lambda Y: 2.0 * Y[:, :, None, None],
        d2fun=lambda Y: np.full((len(Y), 1, 1, 1, 1), 2.0),
        order=2,
        delta=1.0,
        name="square",
    )
    rep = besov_composition_check(square, y, BesovParams(0.6, 4.0, 2.0),
                                  delta=1.0)
    assert rep["ratio"] <= 1.0 + 1e-9


def test_composition_difference_vanishes():
    g = _grid(8)
    y = smooth_random(g, rng_for(5, "comp"))
    ident = linear_field([np.eye(1)])
    rep = besov_composition_check(ident, y, BesovParams(0.6, 4.0, 2.0),
                                  delta=1.0, Y_tilde=y)
    assert rep["difference_lhs"] == 0.0


# -- ODE ---------------------------------------------------------------------------

def test_ode_zero_field():
    x = _path(np.sin)
    zero = linear_field([np.zeros((2, 2)), np.zeros((2, 2))])
    drv = GridPath(x.grid, np.column_stack([x.values[:, 0], x.values[:, 0]]))
    sol = young_ode_solve(zero, drv, [1.0, -2.0], SMOOTH)
    assert np.allclose(sol.path.values, [1.0, -2.0])


def test_ode_exponential_oracle():
    x = _path(np.sin, 12)
    sol = young_ode_solve(scalar_linear_field(), x, 1.0, SMOOTH)
    exact = np.exp(np.sin(x.grid.times()))
    assert np.abs(sol.path.values[:, 0] - exact).max() < 1e-6


def test_ode_affine_exact():
    # constant matrix field: Y = y0 + C (X_t - X_0) up to roundoff
    g = _grid(10)
    t = g.times()
    drv = GridPath(g, np.column_stack([np.sin(t), np.cos(3 * t)]))
    c = np.array([[0.3, -1.2], [0.8, 0.1]])
    const = VectorField(
        fun=lambda Y: np.broadcast_to(c, (len(Y), 2, 2)).copy(),
        dfun=lambda Y: np.zeros((len(Y), 2, 2, 2)),
        d2fun=lambda Y: np.zeros((len(Y), 2, 2, 2, 2)),
        order=3,
        delta=1.0,
        name="const",
    )
    y0 = np.array([1.0, 2.0])
    sol = young_ode_solve(const, drv, y0, SMOOTH)
    expected = y0 + (drv.values - drv.values[0]) @ c.T
    assert np.abs(sol.path.values - expected).max() < 1e-12


def test_ode_regime_rejected():
    x = _path(np.sin)
    with pytest.raises(RegimeError):
        young_ode_solve(scalar_linear_field(), x, 1.0, BesovParams(0.4, 8.0, 8.0))


def test_ode_refinement_consistent():
    fine = _path(np.sin, 12)
    sol_fine = young_ode_solve(scalar_linear_field(), fine, 1.0, SMOOTH)
    coarse = _path(np.sin, 10)
    sol_coarse = young_ode_solve(scalar_linear_field(), coarse, 1.0, SMOOTH)
    diff = np.abs(sol_fine.path.subsample(2).values - sol_coarse.path.values)
    assert diff.max() < 20 * coarse.grid.mesh ** 2  # second-order germ


def _late_burst_driver():
    # smooth on [0, 1/2], a fast large oscillation after it
    g = _grid(10)
    t = g.times()
    return GridPath(g, 0.5 * np.sin(t) + 2.0 * (t > 0.5) * np.sin(60 * (t - 0.5)))


def test_ode_halving_budget_is_per_stretch():
    # one halving before [0, 512] converges, then six in a row from 512 on:
    # seven in total, at most six since a converged subinterval
    x = _late_burst_driver()
    full = young_ode_solve(scalar_linear_field(), x, 1.0, SMOOTH)
    assert full.bound["halvings"] == 7
    assert full.subintervals[:2] == [(0, 512), (512, 520)]
    tight = young_ode_solve(scalar_linear_field(), x, 1.0, SMOOTH, max_halvings=6)
    assert tight.bound["halvings"] == 7
    assert tight.subintervals == full.subintervals
    assert np.array_equal(tight.path.values, full.path.values)


def test_ode_non_contraction_over_budget():
    with pytest.raises(NonContractionError,
                       match=r"no contraction on \[512, 528\] after 5 halvings"):
        young_ode_solve(scalar_linear_field(), _late_burst_driver(), 1.0, SMOOTH,
                        max_halvings=5)


# -- stability probe -----------------------------------------------------------------

def test_probe_identical_inputs():
    x = _path(np.sin, 8)
    rep = ito_lyons_probe_young(
        scalar_linear_field(), scalar_linear_field(), x, x, 1.0, 1.0, SMOOTH
    )
    assert rep["ratio"] == 0.0


def test_probe_scale_stability():
    x = _path(np.sin, 9)
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        rep = ito_lyons_probe_young(
            scalar_linear_field(), scalar_linear_field(),
            x, x, 1.0, 1.0 + eps, SMOOTH,
        )
        ratios.append(rep["ratio"])
    assert max(ratios) / min(ratios) < 5.0


def test_probe_linear_case_oracle():
    # y-only perturbation of dY = Y dX: Y1 - Y2 = dy * e^{X - X_0}, so the
    # output seminorm per unit dy is the seminorm of e^{X - X_0}
    x = _path(np.sin, 10)
    eps = 1e-3
    rep = ito_lyons_probe_young(
        scalar_linear_field(), scalar_linear_field(), x, x, 1.0, 1.0 + eps,
        SMOOTH,
    )
    g = x.grid
    expo = GridPath(g, np.exp(np.sin(g.times())))
    expected = besov_seminorm(expo, *SMOOTH.as_tuple, form="integral")
    assert rep["ratio"] == pytest.approx(expected, rel=1e-3)
