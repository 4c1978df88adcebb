import math

import numpy as np
import pytest

from besov_rough._rng import rng_for
from besov_rough.errors import RegimeError
from besov_rough.grid import GridPath, TwoParamField, UniformGrid
from besov_rough.norms import INF, BesovParams
from besov_rough.rough import (
    RoughPath,
    TensorElement,
    _fbm_chol,
    _toeplitz_chol,
    brownian_lift,
    campanato_scaling,
    canonical_lift,
    chen_residual,
    dilate,
    dilate_element,
    fbm_covariance,
    fbm_path,
    geometric_lift,
    homogeneous_norm,
    lyons_extend,
    rough_besov_norm,
    rough_embedding_report,
    rough_interpolation_report,
    rough_metric,
    tensor_exp,
    tensor_inv,
    tensor_mul,
)

BM_PARAMS = BesovParams(0.45, 32.0, INF)


# -- tensor algebra -------------------------------------------------------------

def test_mul_identity():
    rng = rng_for(0, "tensor")
    x = TensorElement(2, [np.ones(1), rng.standard_normal(2),
                          rng.standard_normal(4)])
    one = TensorElement.identity(2, 2)
    out = tensor_mul(x, one)
    for a, b in zip(out.levels, x.levels):
        assert np.allclose(a, b)


def test_exp_and_inverse():
    v = np.array([0.3, -1.1])
    e = tensor_exp(v, 2)
    assert np.allclose(e.levels[0], 1.0)
    assert np.allclose(e.levels[1], v)
    assert np.allclose(e.level(2), np.outer(v, v) / 2.0)
    inv = tensor_inv(e)
    eminus = tensor_exp(-v, 2)
    for a, b in zip(inv.levels, eminus.levels):
        assert np.allclose(a, b, atol=1e-12)
    prod = tensor_mul(e, inv)
    assert np.allclose(prod.levels[0], 1.0)
    assert np.abs(prod.levels[1]).max() < 1e-12
    assert np.abs(prod.levels[2]).max() < 1e-12


def test_homogeneous_norm_dilation():
    rng = rng_for(1, "tensor")
    x = TensorElement(2, [np.ones(1), rng.standard_normal(2),
                          rng.standard_normal(4)])
    for lam in (0.5, 2.0, -1.5):
        scaled = dilate_element(x, lam)
        assert homogeneous_norm(scaled) == pytest.approx(
            abs(lam) * homogeneous_norm(x)
        )


def test_caps_enforced():
    with pytest.raises(ValueError):
        TensorElement.identity(5, 2)
    with pytest.raises(ValueError):
        TensorElement.identity(2, 5)


# -- lifts ---------------------------------------------------------------------

def test_canonical_lift_linear_path():
    g = UniformGrid(1.0, 9)
    v = np.array([0.7, -0.4])
    path = GridPath(g, np.outer(g.times(), v))
    lift = canonical_lift(path, 3, BM_PARAMS)
    xx = lift.level(2).at(0, g.n - 1).reshape(2, 2)
    # left-point sums converge to v (x) v /2 at rate mesh
    assert np.abs(xx - np.outer(v, v) / 2).max() < np.abs(v).max() ** 2 * g.mesh
    x3 = lift.level(3).at(0, g.n - 1).reshape(2, 2, 2)
    expected3 = np.einsum("i,j,k->ijk", v, v, v) / 6
    assert np.abs(x3 - expected3).max() < np.abs(v).max() ** 3 * 3 * g.mesh
    const = canonical_lift(GridPath(g, np.ones((g.n, 2))), 2, BM_PARAMS)
    assert rough_besov_norm(const) == 0.0


def test_geometric_lift_linear_path_exact():
    g = UniformGrid(1.0, 6)
    v = np.array([0.7, -0.4])
    path = GridPath(g, np.outer(g.times(), v))
    lift = geometric_lift(path, 2, BM_PARAMS)
    xx = lift.level(2).at(0, g.n - 1).reshape(2, 2)
    assert np.abs(xx - np.outer(v, v) / 2).max() < 1e-14


def test_chen_exact_small_grid_all_triples():
    g = UniformGrid(1.0, 5)
    t = g.times()
    path = GridPath(g, np.column_stack([np.sin(t), np.cos(2 * t)]))
    assert chen_residual(canonical_lift(path, 3)) < 1e-12
    # level-1 Chen is additive cancellation, exact up to float re-association
    assert chen_residual(canonical_lift(path, 1)) < 1e-15


def test_chen_fault_detected_exactly():
    g = UniformGrid(1.0, 5)
    t = g.times()
    lift = canonical_lift(GridPath(g, np.column_stack([np.sin(t), t])), 2)
    dense = lift.level(2).materialize().to_dense().copy()
    dense[3, 17, 2] += 1e-3
    corrupted = RoughPath.from_fields(
        g, lift.params,
        [lift.level(1).materialize(), TwoParamField(g, 4, dense=dense)],
    )
    assert chen_residual(corrupted) == pytest.approx(1e-3, rel=1e-6)


def test_brownian_lift_flavors():
    g = UniformGrid(1.0, 8)
    ito = brownian_lift(2, g, 5, "ito")
    strat = brownian_lift(2, g, 5, "stratonovich")
    assert chen_residual(ito) < 1e-12
    assert chen_residual(strat) < 1e-12
    gap = strat.level(2).at(0, g.n - 1) - ito.level(2).at(0, g.n - 1)
    assert np.allclose(gap.reshape(2, 2), 0.5 * np.eye(2), atol=1e-12)


def test_brownian_bracket_monte_carlo():
    g = UniformGrid(1.0, 6)
    diag_ito = []
    for s in range(2000):
        lift = brownian_lift(2, g, rng_for(6, "bracket", s), "ito")
        diag_ito.append(lift.level(2).at(0, g.n - 1).reshape(2, 2)[0, 0])
    diag_ito = np.asarray(diag_ito)
    se = diag_ito.std(ddof=1) / math.sqrt(len(diag_ito))
    assert abs(diag_ito.mean()) <= 3 * se


def test_dilation_identity_and_zero():
    g = UniformGrid(1.0, 7)
    lift = brownian_lift(2, g, 9, "ito")
    same = dilate(lift, 1.0)
    ii = np.array([0, 5]); jj = np.array([64, 100])
    assert np.allclose(same.level(2).pairs(ii, jj), lift.level(2).pairs(ii, jj))
    zero = dilate(lift, 0.0)
    assert rough_besov_norm(zero) == 0.0


def test_dilation_scales_norm():
    g = UniformGrid(1.0, 7)
    lift = brownian_lift(2, g, 10, "ito")
    a = rough_besov_norm(dilate(lift, 2.0))
    assert a == pytest.approx(2.0 * rough_besov_norm(lift), rel=1e-12)


def test_rough_metric_axioms():
    g = UniformGrid(1.0, 6)
    x = brownian_lift(2, g, 11, "ito")
    y = brownian_lift(2, g, 12, "ito")
    assert rough_metric(x, x) == 0.0
    assert rough_metric(x, y) == pytest.approx(rough_metric(y, x))


def test_rough_norm_finite_and_stable_for_bm():
    medians = []
    for level in (8, 10):
        g = UniformGrid(1.0, level)
        vals = [
            rough_besov_norm(brownian_lift(2, g, rng_for(13, "stab", s), "ito"))
            for s in range(10)
        ]
        medians.append(np.median(vals))
    assert 0 < medians[1] < math.inf
    assert abs(medians[1] / medians[0] - 1.0) < 0.25


# -- Lyons extension --------------------------------------------------------------

def test_extension_matches_canonical():
    g = UniformGrid(1.0, 8)
    t = g.times()
    path = GridPath(g, np.column_stack([np.sin(t), np.cos(2 * t)]))
    params = BesovParams(0.6, 32.0, INF)
    ext = lyons_extend(canonical_lift(path, 1, params), 2)
    ref = canonical_lift(path, 2, params)
    ii, jj = np.triu_indices(g.n, k=1)
    assert np.abs(ext.level(2).pairs(ii, jj)
                  - ref.level(2).pairs(ii, jj)).max() < 1e-10


def test_extension_commutes_with_dilation():
    g = UniformGrid(1.0, 7)
    t = g.times()
    params = BesovParams(0.6, 32.0, INF)
    x1 = canonical_lift(GridPath(g, np.column_stack([np.sin(t), t**2])), 1,
                        params)
    lam = 1.3
    a = lyons_extend(dilate(x1, lam), 2)
    b = dilate(lyons_extend(x1, 2), lam)
    ii, jj = np.triu_indices(g.n, k=1)
    assert np.abs(a.level(2).pairs(ii, jj)
                  - b.level(2).pairs(ii, jj)).max() < 1e-12


def test_extension_of_brownian_level2():
    g = UniformGrid(1.0, 8)
    lift = brownian_lift(2, g, 14, "ito", BM_PARAMS)
    ext = lyons_extend(lift, 3)
    assert chen_residual(ext) < 1e-10
    assert 0 < rough_besov_norm(ext) < math.inf


def test_extension_endpoint_rejected():
    g = UniformGrid(1.0, 6)
    for alpha in (1.0 / 3.0, 1.0 / 3.0 + 1e-13):  # the endpoint to 1e-12
        lift = brownian_lift(2, g, 15, "ito",
                             params=BesovParams(alpha, 32.0, 3.0))
        with pytest.raises(RegimeError):
            lyons_extend(lift, 3)


def test_extension_field_backed_input():
    g = UniformGrid(1.0, 6)
    t = g.times()
    params = BesovParams(0.6, 32.0, INF)
    lift = canonical_lift(GridPath(g, np.column_stack([np.sin(t), t])), 2,
                          params)
    fields = [lift.level(1).materialize(), lift.level(2).materialize()]
    fb = RoughPath.from_fields(g, params, fields)
    ext = lyons_extend(fb, 3)
    ref = lyons_extend(lift, 3)
    ii, jj = np.triu_indices(g.n, k=1)
    assert np.abs(ext.level(3).pairs(ii, jj)
                  - ref.level(3).pairs(ii, jj)).max() < 1e-12


def test_field_backed_restriction_base_starts_at_zero():
    g = UniformGrid(1.0, 5)
    t = g.times()
    lift = canonical_lift(GridPath(g, np.column_stack([np.sin(t), t])), 2)
    fb = RoughPath.from_fields(g, lift.params,
                               [lift.level(k).materialize() for k in (1, 2)])
    sub, ref = fb.restrict(8, 16), lift.restrict(8, 16)
    assert np.all(sub.base_path().values[0] == 0.0)
    assert np.abs(sub.base_path().values
                  - ref.base_path().values).max() < 1e-14


# -- stochastic constructors --------------------------------------------------------

def test_fbm_covariance_half_is_brownian():
    g = UniformGrid(1.0, 6)
    cov = fbm_covariance(0.5, g)
    t = g.times()[1:]
    assert np.abs(cov - np.minimum(t[:, None], t[None, :])).max() < 1e-12


@pytest.mark.parametrize("H, level, horizon", [
    (0.4, 8, 3.7), (0.7, 6, 1.0), (0.25, 5, 0.3)])
def test_fbm_covariance_equals_the_broadcast_formula(H, level, horizon):
    t = UniformGrid(horizon, level).times()[1:]
    want = 0.5 * (t[:, None] ** (2 * H) + t[None, :] ** (2 * H)
                  - np.abs(t[:, None] - t[None, :]) ** (2 * H))
    got = fbm_covariance(H, UniformGrid(horizon, level))
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous


def test_fbm_increment_variance():
    g = UniformGrid(1.0, 8)
    H = 0.4
    lag = 16
    samples = [fbm_path(H, g, rng_for(16, "fbm", s)).values[:, 0]
               for s in range(400)]
    incs = np.concatenate([w[lag::lag] - w[:-lag:lag] for w in samples])
    target = (lag * g.mesh) ** (2 * H)
    est = incs.var()
    se = np.var(incs**2) ** 0.5 / math.sqrt(len(incs))
    assert abs(est - target) <= 4 * se


@pytest.mark.parametrize("H", [0.25, 0.4, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("level, horizon", [(2, 1.0), (5, 3.7), (8, 1.0),
                                            (8, 3.7)])
def test_fbm_chol_matches_the_dense_cholesky(H, level, horizon):
    cov = fbm_covariance(H, UniformGrid(horizon, level))
    want = np.linalg.cholesky(cov)
    chol = _fbm_chol(H, level, horizon)
    assert np.abs(chol - want).max() <= 1e-10 * np.abs(want).max()
    assert np.abs(chol @ chol.T - cov).max() <= 1e-13 * np.abs(cov).max()
    assert np.array_equal(chol, np.tril(chol)) and np.all(np.diag(chol) > 0)


def test_toeplitz_chol_factors_a_toeplitz_matrix():
    gamma = np.exp(-np.arange(40) / 3.0) * np.cos(np.arange(40))
    gamma[0] += 1.0
    lag = np.abs(np.subtract.outer(np.arange(40), np.arange(40)))
    lt = _toeplitz_chol(gamma)
    want = np.linalg.cholesky(gamma[lag])
    assert np.abs(lt.T - want).max() <= 1e-13 * np.abs(want).max()
    assert lt.flags.c_contiguous


@pytest.mark.parametrize("gamma", [[1.0, 1.5, 0.0], [1.0, 1.0], [0.0, 0.0],
                                   [-1.0], [1.0, 0.9, 0.0, 0.9],
                                   [1.0, float("nan")]])
def test_toeplitz_chol_rejects_non_positive_definite(gamma):
    with pytest.raises(RegimeError, match="not positive definite"):
        _toeplitz_chol(np.array(gamma))


def test_fbm_rejects_bad_hurst():
    with pytest.raises(RegimeError):
        fbm_path(1.2, UniformGrid(1.0, 4), 0)


# -- reports ----------------------------------------------------------------------

def test_embedding_report_stable_for_bm():
    ratios = {}
    for level in (8, 10):
        g = UniformGrid(1.0, level)
        lift = brownian_lift(2, g, rng_for(17, "emb"), "ito")
        rep = rough_embedding_report(lift)
        ratios[level] = [row["ratio"] for row in rep["levels"]]
    for a, b in zip(ratios[8], ratios[10]):
        assert 0 < b < math.inf
        assert abs(b / a - 1.0) < 0.6  # fitted constant, stable across levels


def test_interpolation_report_bm():
    g = UniformGrid(1.0, 8)
    lift = brownian_lift(2, g, rng_for(18, "int"), "ito")
    rep = rough_interpolation_report(lift, 1, 2)
    assert 0 < rep["ratio"] < 2.0  # lhs bounded by the normed rhs up to C


def test_campanato_scaling_slopes():
    g = UniformGrid(1.0, 8)
    t = g.times()
    lift = canonical_lift(
        GridPath(g, np.column_stack([np.sin(t), np.cos(2 * t)])), 2,
        BesovParams(0.6, 32.0, INF),
    )
    for k in (1, 2):
        rep = campanato_scaling(lift, k)
        assert rep["slope"] >= rep["expected"] - 0.2
