import math

import numpy as np
import pytest

from besov_rough._rng import rng_for
from besov_rough.errors import NonContractionError, RegimeError
from besov_rough.grid import GridPath, UniformGrid
from besov_rough.norms import INF, BesovParams
from besov_rough.rough import (RoughPath, brownian_lift, canonical_lift,
                               geometric_lift)
from besov_rough.young import (
    VectorField,
    YoungRegime,
    rotation_field,
    scalar_linear_field,
    sigmoid_field,
    young_integral,
    young_ode_solve,
)
from besov_rough.controlled import (
    ControlledPath,
    _chain,
    _expansion_lead,
    compose_controlled,
    controlled_distance,
    controlled_norm,
    davie_residual,
    rde_solve,
    rde_stability_probe,
    rough_integral,
)

SMOOTH = BesovParams(0.5, INF, INF)


def _scalar_lift(level=10, fn=np.sin, kind="geometric", params=SMOOTH):
    g = UniformGrid(1.0, level)
    path = GridPath(g, fn(g.times()))
    lift = geometric_lift if kind == "geometric" else canonical_lift
    return lift(path, 2, params)


def _planes(rows):
    """(nodes, ...) rows as the (..., nodes) planes of `ControlledPath`."""
    return np.moveaxis(rows, 0, -1)


def _self_controlled(X):
    """Y = X, Y' = Id; a scalar driver gives a (1, 1)-valued integrand."""
    g, n = X.grid, X.n
    if n == 1:
        return ControlledPath(X, X.base_planes.reshape(1, 1, g.n),
                              np.ones((1, 1, 1, g.n)))
    return ControlledPath(X, X.base_planes,
                          np.repeat(np.eye(n)[..., None], g.n, -1))


# -- controlled norms -----------------------------------------------------------

def test_constant_pair_zero_norm():
    X = _scalar_lift(8)
    g = X.grid
    cp = ControlledPath(X, np.full((1, g.n), 2.0), np.zeros((1, 1, g.n)))
    assert controlled_norm(cp) == 0.0


def test_path_controls_itself():
    X = _scalar_lift(8)
    g = X.grid
    cp = ControlledPath(X, X.base_planes, np.ones((1, 1, g.n)))
    assert controlled_norm(cp) == pytest.approx(0.0, abs=1e-12)


def test_pair_paths_share_the_frozen_planes():
    # y_path and yp_path hold the pair's planes uncopied, so the pair keeps
    # them read-only: a path once returned cannot change under its caller
    X = _scalar_lift(6)
    Y, Yp = np.sin(X.grid.times())[None], np.ones((1, 1, X.grid.n))
    cp = ControlledPath(X, Y, Yp)
    y, yp = cp.y_path(), cp.yp_path()
    assert np.shares_memory(y.planes, Y) and np.shares_memory(yp.planes, Yp)
    for arr in (cp.Y, cp.Yp, Y, Yp):
        with pytest.raises(ValueError):
            arr[..., 0] = 1.0
    assert y.values[0, 0] == 0.0 and yp.values[0, 0] == 1.0


def test_distance_axioms():
    X = brownian_lift(1, UniformGrid(1.0, 7), 3, "ito")
    g = X.grid
    rng = rng_for(0, "cd")
    y1 = np.cumsum(rng.standard_normal((g.n, 1)), axis=0) * 0.1
    y2 = np.cumsum(rng.standard_normal((g.n, 1)), axis=0) * 0.1
    cp1 = ControlledPath(X, y1.T, _planes(rng.standard_normal((g.n, 1, 1))))
    cp2 = ControlledPath(X, y2.T, _planes(rng.standard_normal((g.n, 1, 1))))
    assert controlled_distance(cp1, cp1) == 0.0
    assert controlled_distance(cp1, cp2) == pytest.approx(
        controlled_distance(cp2, cp1)
    )


def test_pair_must_be_planes_on_the_driver_grid():
    X = _scalar_lift(6)
    g = X.grid
    with pytest.raises(ValueError, match="driver grid"):
        ControlledPath(X, np.zeros((g.n, 1)), np.zeros((g.n, 1, 1)))
    with pytest.raises(ValueError, match="Y' must have shape"):
        ControlledPath(X, np.zeros((1, g.n)), np.zeros((1, 2, g.n)))


def test_remainder_cache_recomputable():
    X = brownian_lift(1, UniformGrid(1.0, 7), 4, "ito")
    g = X.grid
    rng = rng_for(1, "rem")
    y = np.cumsum(rng.standard_normal((g.n, 1)), axis=0) * 0.1
    yp = rng.standard_normal((g.n, 1, 1))
    cp = ControlledPath(X, y.T, _planes(yp))
    rem = cp.remainder
    base = X.base_path().values
    for (i, j) in [(0, 17), (5, 100), (30, 31)]:
        direct = y[j] - y[i] - yp[i, :, 0] * (base[j, 0] - base[i, 0])
        assert np.abs(rem.at(i, j) - direct).max() < 1e-14


# -- rough integral ---------------------------------------------------------------

def test_constant_integrand():
    X = _scalar_lift(8)
    g = X.grid
    c = 2.5
    cp = ControlledPath(X, np.full((1, 1, g.n), c), np.zeros((1, 1, 1, g.n)))
    z = rough_integral(cp)
    base = X.base_planes
    expected = c * (base - base[:, :1])
    assert np.abs(z.Y - expected).max() < 1e-12
    assert np.array_equal(z.Yp, cp.Y)


def test_calculus_oracle_geometric_lift():
    # int x dx against the geometric lift telescopes to (x_t^2 - x_0^2)/2
    X = _scalar_lift(12, fn=lambda t: np.sin(3 * t), kind="geometric")
    g = X.grid
    cp = _self_controlled(X)
    z = rough_integral(cp)
    exact = (np.sin(3 * g.times()) ** 2) / 2
    assert np.abs(z.Y.reshape(-1) - exact).max() < 1e-8


def test_left_lift_reduces_to_young():
    # against the left-point lift the consecutive second level vanishes, so
    # the rough integral equals the Young (left Riemann) integral exactly
    X = _scalar_lift(10, kind="canonical", params=BesovParams(0.45, 32.0, INF))
    g = X.grid
    cp = _self_controlled(X)
    z = rough_integral(cp)
    x = X.base_path()
    young = young_integral(
        x, x, YoungRegime(BesovParams(0.9, INF, INF), BesovParams(0.9, INF, INF))
    )
    assert np.abs(z.Y.reshape(-1) - young.integral.values[:, 0]).max() < 1e-14


def test_integral_linear_in_integrand():
    X = brownian_lift(1, UniformGrid(1.0, 8), 7, "ito",
                      BesovParams(0.45, 32.0, INF))
    g = X.grid
    rng = rng_for(2, "lin")
    y1 = _planes(rng.standard_normal((g.n, 1, 1)))
    yp1 = _planes(rng.standard_normal((g.n, 1, 1, 1)))
    y2 = _planes(rng.standard_normal((g.n, 1, 1)))
    yp2 = _planes(rng.standard_normal((g.n, 1, 1, 1)))
    combo = rough_integral(
        ControlledPath(X, 2.0 * y1 - 0.5 * y2, 2.0 * yp1 - 0.5 * yp2)
    )
    parts = (
        2.0 * rough_integral(ControlledPath(X, y1, yp1)).Y
        - 0.5 * rough_integral(ControlledPath(X, y2, yp2)).Y
    )
    assert np.abs(combo.Y - parts).max() < 1e-12


def test_ito_formula_small_batch():
    g = UniformGrid(1.0, 8)
    vals = []
    for s in range(400):
        X = brownian_lift(1, g, rng_for(3, "ito", s), "ito",
                          BesovParams(0.45, 32.0, INF))
        w = X.base_path().values
        z = rough_integral(_self_controlled(X))
        vals.append(z.Y.ravel()[-1] + 0.5 - 0.5 * w[-1, 0] ** 2)
    vals = np.asarray(vals)
    assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / math.sqrt(len(vals))


def test_integral_regime_rejected():
    g = UniformGrid(1.0, 6)
    bad = brownian_lift(1, g, 8, "ito", BesovParams(1.0 / 3.0, 32.0, 4.0))
    with pytest.raises(RegimeError):
        rough_integral(_self_controlled(bad))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_expansion_lead_one_row_is_row_of_doubled(m, n):
    rng = rng_for(m * 10 + n, "lead")
    for _ in range(200):
        a, dx = rng.standard_normal((1, m, n)), rng.standard_normal((1, n))
        b, xx = rng.standard_normal((1, m, n, n)), rng.standard_normal((1, n, n))
        one = _lead_planes(a, dx, b, xx)
        doubled = _lead_planes(*(np.repeat(v, 2, 0) for v in (a, dx, b, xx)))
        assert np.array_equal(_expansion_lead(*one)[:, 0],
                              _expansion_lead(*doubled)[:, 0])
        assert np.array_equal(_expansion_lead(*one[:2])[:, 0],
                              _expansion_lead(*doubled[:2])[:, 0])


def _lead_planes(a, dx, b, xx):
    """Row-first operands as the component planes `_expansion_lead` takes:
    xx (B, n, n) gives the rows k*n + j of its level-2 planes."""
    return [np.moveaxis(a, 0, -1), dx.T, np.moveaxis(b, 0, -1),
            np.moveaxis(xx, 0, -1).reshape(-1, len(xx))]


# -- composition --------------------------------------------------------------------

def test_compose_linear_field_exact():
    X = brownian_lift(2, UniformGrid(1.0, 7), 9, "ito",
                      BesovParams(0.45, 32.0, INF))
    g = X.grid
    rng = rng_for(4, "comp")
    y = rng.standard_normal((g.n, 2)) * 0.3
    yp = rng.standard_normal((g.n, 2, 2))
    cp = ControlledPath(X, y.T, _planes(yp))
    F = rotation_field()
    out = compose_controlled(F, cp)
    # linear field: R^{F(Y)} = F(R^Y) entrywise
    mats = np.stack(
        [np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]])],
        axis=-1,
    )
    ii = np.array([0, 3, 40])
    jj = np.array([10, 77, 90])
    lhs = out.remainder.pairs(ii, jj).reshape(3, 2, 2)
    rhs = np.einsum("abj,kb->kaj", mats, cp.remainder.pairs(ii, jj))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_compose_square_taylor_identity():
    # scalar f(x) = x^2: R^{f(Y)} = 2 Y_s R^Y + (dY)^2 - (Y' dX)^2 ... checked
    # against the brute-force second-order expansion
    X = brownian_lift(1, UniformGrid(1.0, 6), 10, "ito",
                      BesovParams(0.45, 32.0, INF))
    g = X.grid
    rng = rng_for(5, "comp2")
    y = np.cumsum(rng.standard_normal((g.n, 1)), axis=0) * 0.05
    yp = rng.standard_normal((g.n, 1, 1))
    cp = ControlledPath(X, y.T, _planes(yp))
    square = VectorField(
        fun=lambda Y: Y[:, None] ** 2,
        dfun=lambda Y: 2.0 * Y[:, None, None],
        d2fun=lambda Y: np.full((1, 1, 1) + Y.shape, 2.0),
        order=2, delta=1.0, name="square",
    )
    out = compose_controlled(square, cp)
    base = X.base_path().values
    for (i, j) in [(0, 20), (7, 33)]:
        dx = base[j, 0] - base[i, 0]
        got = out.remainder.at(i, j)[0]
        expected = (y[j, 0] ** 2 - y[i, 0] ** 2) - 2 * y[i, 0] * yp[i, 0, 0] * dx
        assert got == pytest.approx(expected, abs=1e-12)


def test_compose_constant_field():
    X = brownian_lift(1, UniformGrid(1.0, 6), 11, "ito",
                      BesovParams(0.45, 32.0, INF))
    g = X.grid
    const = VectorField(
        fun=lambda Y: np.full((1,) + Y.shape, 1.5),
        dfun=lambda Y: np.zeros((1, 1) + Y.shape),
        d2fun=lambda Y: np.zeros((1, 1, 1) + Y.shape),
        order=3, delta=1.0, name="const",
    )
    cp = ControlledPath(X, np.zeros((1, g.n)), np.ones((1, 1, g.n)))
    out = compose_controlled(const, cp)
    assert np.all(out.Yp == 0.0)


# -- RDE solver -----------------------------------------------------------------------

def test_compose_report():
    g = UniformGrid(1.0, 8)
    t = g.times()
    X = geometric_lift(GridPath(g, np.column_stack([np.sin(t), np.cos(2 * t)])),
                       2, SMOOTH)
    out, rep = compose_controlled(sigmoid_field(2, 2), _self_controlled(X),
                                  report=True)
    assert all(math.isfinite(rep[k]) and rep[k] > 0
               for k in ("lhs", "rhs", "ratio"))
    assert rep["ratio"] == rep["lhs"] / rep["rhs"]
    assert rep["lhs"] == controlled_norm(out)


def test_rde_zero_field():
    X = _scalar_lift(8)
    zero = VectorField(
        fun=lambda Y: np.zeros((1,) + Y.shape),
        dfun=lambda Y: np.zeros((1, 1) + Y.shape),
        d2fun=lambda Y: np.zeros((1, 1, 1) + Y.shape),
        order=3, delta=1.0, name="zero",
    )
    sol = rde_solve(zero, X, 3.0)
    assert np.allclose(sol.path.values, 3.0)


def test_rde_exponential_oracle():
    X = _scalar_lift(12)
    sol = rde_solve(scalar_linear_field(), X, 1.0)
    exact = np.exp(np.sin(X.grid.times()))
    assert np.abs(sol.path.values[:, 0] - exact).max() < 1e-6


def test_rde_field_class_checked():
    X = _scalar_lift(8)
    weak = VectorField(
        fun=lambda Y: Y[:, None],
        dfun=lambda Y: np.ones((1, 1) + Y.shape),
        order=1, delta=1.0, name="c1only",
    )
    with pytest.raises(RegimeError):
        rde_solve(weak, X, 1.0)


def _linear_of_class(order, delta):
    F = scalar_linear_field()
    return VectorField(F.fun, F.dfun, F.d2fun, order=order, delta=delta,
                       name=f"C^{order},{delta}")


@pytest.mark.parametrize("n_level, above, thin", [(1, 0.6, 0.5),
                                                  (2, 0.45, 0.2)],
                         ids=["young", "rde"])
@pytest.mark.parametrize("offset", [0.0, 1e-13, None],
                         ids=["endpoint", "endpoint+1e-13", "above"])
def test_field_class_ladder(n_level, above, thin, offset):
    # one rule for the Young ODE (N = 1) and the RDE (N = 2): C^{N+1} at the
    # endpoint alpha = 1/(N+1), C^{N,delta} with (N+delta) alpha > 1 above it
    if offset is None:
        params = BesovParams(above, 32.0, INF)
        weak, minimal = (n_level, thin), (n_level, 1.0)
    else:
        params = BesovParams(1.0 / (n_level + 1) + offset, 32.0, n_level + 1)
        weak, minimal = (n_level, 1.0), (n_level + 1, 1.0)
    g = UniformGrid(1.0, 7)
    path = GridPath(g, np.sin(g.times()))

    def solve(F):
        if n_level == 1:
            return young_ode_solve(F, path, 1.0, params)
        return rde_solve(F, geometric_lift(path, 2, params), 1.0)

    with pytest.raises(RegimeError, match="too weak"):
        solve(_linear_of_class(*weak))
    assert np.all(np.isfinite(solve(_linear_of_class(*minimal)).path.values))


def test_rde_overflowing_iterate_raises():
    # finite level-2 entries whose products overflow in the solution: the
    # solver raises instead of returning -inf and nan after 1 sweep each
    X = brownian_lift(2, UniformGrid(1.0, 3), 7)
    sig = [lv.copy() for lv in X._sig]
    sig[2][:2, 2] = 1e200
    sig[2][:2, -1] = (-1e200, 3.0)
    huge = RoughPath(X.grid, X.params, sig)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OverflowError, match="overflows float64"):
        rde_solve(rotation_field(), huge, [1.0, 0.0])


def test_rde_associative_concatenation():
    X = _scalar_lift(10)
    sol = rde_solve(scalar_linear_field(), X, 1.0)
    half = X.grid.n_cells // 2
    left = rde_solve(scalar_linear_field(), X.restrict(0, half), 1.0)
    y_mid = left.path.values[-1]
    right = rde_solve(scalar_linear_field(), X.restrict(half, 2 * half), y_mid)
    glued = np.vstack([left.path.values[:-1], right.path.values])
    assert np.abs(glued - sol.path.values).max() < 1e-9


def test_rde_refinement_consistent():
    params = SMOOTH
    fine = _scalar_lift(12, params=params)
    coarse = _scalar_lift(10, params=params)
    a = rde_solve(scalar_linear_field(), fine, 1.0).path.subsample(2).values
    b = rde_solve(scalar_linear_field(), coarse, 1.0).path.values
    # Davie scheme is second order on geometric lifts of smooth drivers
    assert np.abs(a - b).max() < 50 * coarse.grid.mesh ** 2


# -- Davie residual ---------------------------------------------------------------------

def test_rde_brownian_golden():
    # pinned adaptive policy: three halvings from the whole grid to 32 cells
    X = brownian_lift(2, UniformGrid(1.0, 8), 7)
    sol = rde_solve(rotation_field(), X, (1.0, 0.5))
    assert sol.iterations == [15, 13, 12, 13, 13, 13, 13, 12]
    assert sol.subintervals == [(32 * i, 32 * (i + 1)) for i in range(8)]
    assert sol.report["halvings"] == 3


def test_rde_non_contraction_over_budget():
    X = brownian_lift(2, UniformGrid(1.0, 8), 7)
    with pytest.raises(NonContractionError,
                       match=r"no contraction on \[0, 64\] after 2 halvings"):
        rde_solve(rotation_field(), X, (1.0, 0.5), max_halvings=2)


def test_davie_zero_field():
    X = _scalar_lift(8)
    zero = VectorField(
        fun=lambda Y: np.zeros((1,) + Y.shape),
        dfun=lambda Y: np.zeros((1, 1) + Y.shape),
        d2fun=lambda Y: np.zeros((1, 1, 1) + Y.shape),
        order=3, delta=1.0, name="zero",
    )
    sol = rde_solve(zero, X, 1.0)
    rep = davie_residual(sol.controlled, zero)
    assert rep["norm"] == 0.0


def test_davie_slope_linear_rde():
    X = _scalar_lift(12)
    sol = rde_solve(scalar_linear_field(), X, 1.0)
    rep = davie_residual(sol.controlled, scalar_linear_field(),
                         h_range=(2.0**-10, 2.0**-4))
    assert rep["slope"] == pytest.approx(3.0, abs=0.3)


def test_davie_detects_perturbation():
    X = _scalar_lift(10)
    sol = rde_solve(scalar_linear_field(), X, 1.0)
    clean = davie_residual(sol.controlled, scalar_linear_field())
    eps = 1e-2
    g = X.grid
    wobbled = sol.controlled.Y + eps * g.times()
    cp = ControlledPath(X, wobbled, sol.controlled.Yp)
    bad = davie_residual(cp, scalar_linear_field())
    assert bad["norm"] - clean["norm"] >= eps / 2


# -- stability ------------------------------------------------------------------------

def test_stability_identical_data():
    X = _scalar_lift(8)
    rep = rde_stability_probe(scalar_linear_field(), scalar_linear_field(),
                              X, X, 1.0, 1.0)
    assert rep["ratio"] == 0.0


def test_stability_linear_flow_oracle():
    # y-perturbation of the linear RDE: the solution map derivative is
    # e^{x_t - x_0}, measured in the controlled metric
    X = _scalar_lift(10)
    ratios = []
    for eps in (1e-2, 1e-3):
        rep = rde_stability_probe(scalar_linear_field(), scalar_linear_field(),
                                  X, X, 1.0, 1.0 + eps)
        ratios.append(rep["ratio"])
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-2)  # linear in dy


def test_endpoint_remainder_norm_is_one_gauge():
    # at alpha = 1/3 the rough integral's report and the Davie residual
    # measure one level-2 remainder field with one norm.  A field with
    # constant f = c and Df = d gives the Davie residual dY - c dX - b XX,
    # b = Df f; for Y the integral of (c, b) it is the integral's remainder
    params = BesovParams(1.0 / 3.0, 12.0, 3.0)
    X = brownian_lift(2, UniformGrid(1.0, 8), rng_for(4, "gauge"), "ito",
                      params=params)
    n = X.grid.n
    c = np.repeat([[[0.7], [-1.3]]], n, -1)
    d = np.repeat([[[[0.4]], [[-0.9]]]], n, -1)
    const = VectorField(
        fun=lambda Y: c[..., :Y.shape[1]], dfun=lambda Y: d[..., :Y.shape[1]],
        d2fun=lambda Y: np.zeros((1, 2, 1, 1) + Y.shape[1:]),
        order=3, delta=1.0, name="constant")
    b = _chain(d, c)
    z, rep = rough_integral(ControlledPath(X, c, b), report=True)
    dav = davie_residual(ControlledPath(X, z.Y, z.Yp), const)
    assert rep["endpoint"] and dav["endpoint"]
    assert dav["norm"] == rep["remainder_norm"] > 1e-3
