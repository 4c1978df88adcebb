"""The column kernels against the numpy einsum forms they replace, bit for bit.

On long batches the small contractions run as one multiply per column pair,
and their sums add the products in the order numpy's einsum uses (see
`norms._lane_sum`).  That order belongs to numpy's einsum loops on the
CPU at hand, not to any documented contract, so every kernel and call site
is compared with the einsum form here, signed zeros included; a mismatch
names the numpy version that summed differently.
"""
import itertools

import numpy as np
import pytest

from besov_rough import controlled, norms, rough, stochlab, young
from besov_rough._rng import rng_for
from besov_rough.grid import GridPath, UniformGrid
from besov_rough.norms import _COLUMN_ROWS, _lane_sum, _mags, _outer
from besov_rough.rough import (
    brownian_lift,
    canonical_lift,
    geometric_lift,
    homogeneous_distance_level2,
    lyons_extend,
    rough_metric,
)

ROWS = [1, 2, 3, _COLUMN_ROWS - 1, _COLUMN_ROWS, _COLUMN_ROWS + 1, 5000]
DIMS = list(itertools.product(range(1, 5), range(1, 5)))


def _rand(rng, shape):
    """Normal entries with about a tenth each of +0.0 and -0.0."""
    x = rng.standard_normal(shape)
    u = rng.random(shape)
    x[u < 0.1] = 0.0
    x[(u >= 0.1) & (u < 0.2)] = -0.0
    return x


def _layouts(x):
    """x as a contiguous array, with strided rows, and with a strided last
    axis: equal values, different memory layouts."""
    yield x
    rows = np.empty((2 * len(x),) + x.shape[1:])
    rows[::2] = x
    yield rows[::2]
    cols = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
    cols[..., ::2] = x
    yield cols[..., ::2]


def _same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
        f"{what}: the column form differs from einsum under numpy"
        f" {np.__version__}")


# the einsum forms the kernels replaced


def _einsum_outer(u, v):
    return np.einsum("bi,bj->bij", u, v).reshape(max(len(u), len(v)), -1)


def _einsum_mags(d):
    return np.sqrt(np.einsum("...ij,...ij->...i", d, d))


def _einsum_lane_sum(x, y, spec, *operands):
    return np.einsum(spec, *operands)


def _einsum_lead(a, dx, b=None, xx=None):
    lead = np.einsum("bmn,bn->bm", a, dx)
    if b is not None:
        if len(b) == 1:
            b, xx = np.repeat(b, 2, 0), np.repeat(xx, 2, 0)
        lead = lead + np.einsum("bmjk,bkj->bm", b, xx)[: len(lead)]
    return lead


def _einsum_hom(dw, xx):
    mag1 = np.sqrt(np.einsum("bi,bi->b", dw, dw))
    mag2 = np.sqrt(np.einsum("bij,bij->b", xx, xx))
    xx_inv = -xx + np.einsum("bi,bj->bij", dw, dw)
    mag2i = np.sqrt(np.einsum("bij,bij->b", xx_inv, xx_inv))
    return 0.5 * (np.maximum(mag1, np.sqrt(2.0 * mag2))
                  + np.maximum(mag1, np.sqrt(2.0 * mag2i)))


@pytest.fixture
def einsum_only(monkeypatch):
    """Route every call site through the einsum forms above."""
    for mod in (norms, rough, stochlab):
        monkeypatch.setattr(mod, "_mags", _einsum_mags)
    for mod in (rough, stochlab):
        monkeypatch.setattr(mod, "_outer", _einsum_outer)
    monkeypatch.setattr(young, "_lane_sum", _einsum_lane_sum)
    monkeypatch.setattr(controlled, "_lane_sum", _einsum_lane_sum)
    return monkeypatch


# -- the helpers ----------------------------------------------------------------


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 5])
def test_lane_sum_is_einsums_order(terms):
    rng = np.random.default_rng(terms)
    for rows in ROWS:
        for x, y in zip(_layouts(_rand(rng, (rows, terms))),
                        _layouts(_rand(rng, (rows, terms)))):
            _same(_lane_sum(x, y, "bi,bi->b", x, y),
                  np.einsum("bi,bi->b", x, y), f"lane sum of {terms}")
    neg, one = np.full((_COLUMN_ROWS, terms), -0.0), np.ones((1, terms))
    _same(_lane_sum(neg, one, "bi,bi->b", neg, one),
          np.zeros(_COLUMN_ROWS), "a -0.0 sum")


@pytest.mark.parametrize("p, q", DIMS + [(4, 8), (8, 4), (16, 2)])
def test_outer_equals_einsum(p, q):
    rng = np.random.default_rng(10 * p + q)
    for rows in ROWS:
        for u in _layouts(_rand(rng, (rows, p))):
            for v in _layouts(_rand(rng, (rows, q))):
                _same(_outer(u, v), _einsum_outer(u, v), f"outer {p}x{q}")
        one = _rand(rng, (1, p))
        v = _rand(rng, (rows, q))
        _same(_outer(one, v), _einsum_outer(one, v), "one-row outer")
        _same(_outer(v, one[:, :1]), _einsum_outer(v, one[:, :1]),
              "one-row outer")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 16])
def test_mags_equal_einsum(m):
    rng = np.random.default_rng(m)
    for shape in [(rows, m) for rows in ROWS] + [(2, 100, m), (3, 300, m), (40, 40, m)]:
        for d in _layouts(_rand(rng, shape)):
            # at m = 1 |x| is taken, which is sqrt(x * x) for every x whose
            # square neither overflows nor underflows
            _same(_mags(d), _einsum_mags(d), f"magnitudes m={m}")


@pytest.mark.parametrize("m, n", DIMS)
def test_controlled_increment_equals_einsum(m, n):
    rng = np.random.default_rng(10 * m + n)
    for rows in ROWS:
        terms = [_rand(rng, (rows, m, n)), _rand(rng, (rows, n)),
                 _rand(rng, (rows, m, n, n)), _rand(rng, (rows, n, n))]
        for layout in zip(*map(_layouts, terms)):
            _same(controlled._expansion_lead(*layout), _einsum_lead(*layout),
                  f"a dX + b XX, m={m} n={n}")
            _same(controlled._expansion_lead(*layout[:2]),
                  _einsum_lead(*layout[:2]), f"a dX, m={m} n={n}")


@pytest.mark.parametrize("m, n", DIMS)
def test_chain_equals_einsum(m, n):
    rng = np.random.default_rng(10 * m + n)
    for rows in ROWS:
        for mp, n_out in [(m, n), (n, 1)]:  # Df f, and a composed pair
            d, y = _rand(rng, (rows, mp, n_out, m)), _rand(rng, (rows, m, n))
            for dl, yl in zip(_layouts(d), _layouts(y)):
                _same(controlled._chain(dl, yl),
                      np.einsum("bajc,bck->bajk", dl, yl),
                      f"Df f, m={m} n={n}")


@pytest.mark.parametrize("m, n", DIMS)
def test_linear_field_equals_einsum(m, n):
    rng = np.random.default_rng(10 * m + n)
    mats = [_rand(rng, (m, m)) for _ in range(n)]
    field = young.linear_field(mats)
    stacked = np.stack(mats, axis=-1)
    for rows in ROWS:
        for Y in _layouts(_rand(rng, (rows, m))):
            _same(field.fun(Y), np.einsum("abj,kb->kaj", stacked, Y),
                  f"linear field, m={m} n={n}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_homogeneous_distance_equals_einsum(n):
    rng = np.random.default_rng(n)
    for rows in ROWS:
        for dw, xx in zip(_layouts(_rand(rng, (rows, n))),
                          _layouts(_rand(rng, (rows, n, n)))):
            _same(homogeneous_distance_level2(dw, xx), _einsum_hom(dw, xx),
                  f"level-2 distance n={n}")


# -- the call sites on real inputs ----------------------------------------------


def _signals(n, level=11):
    grid = UniformGrid(1.0, level)
    t = grid.times()[:, None]
    return GridPath(grid, np.sin((1 + np.arange(n)) * 3 * t) + t ** 2)


def _lifts(n):
    x = _signals(n)
    return [canonical_lift(x, 3), geometric_lift(x, 4 if n < 3 else 2),
            lyons_extend(brownian_lift(n, x.grid, 5), 3)]


def _lift_outputs(n):
    out = []
    for X in _lifts(n):
        out += list(X._sig)
        inc = rough._mul_levels(X._inv_prefix(), X._sig, X.depth)
        out += inc + [rough._hom_levels(inc, n, X.depth)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lifts_and_gauges_equal_einsum(einsum_only, n):
    want = _lift_outputs(n)
    einsum_only.undo()
    for got, ref in zip(_lift_outputs(n), want, strict=True):
        _same(got, ref, f"lift levels and gauges n={n}")


def _mc_outputs(dim):
    grid = UniformGrid(1.0, 11)  # windows of 1536 to 2044 rows
    paths = [stochlab.brownian_path(grid, rng_for(3, "k", s), dim).values
             for s in range(2)]
    tables = [stochlab._window_table(paths, [2, 5, 9], 11, 3.0, 0.5, lv2)
              for lv2 in (True, False)]
    return [t[k] for t in tables for k in t] + [
        norms.campanato_ratio(GridPath(grid, paths[0]), 0.3)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_statistics_equal_einsum(einsum_only, dim):
    want = _mc_outputs(dim)
    einsum_only.undo()
    for got, ref in zip(_mc_outputs(dim), want, strict=True):
        _same(got, ref, f"window statistics and Campanato ratio dim={dim}")


def _solver_outputs():
    X = geometric_lift(_signals(2, level=10), 2, norms.BesovParams(
        0.5, norms.INF, norms.INF))
    F = young.rotation_field()
    sol = controlled.rde_solve(F, X, np.array([1.0, 0.5]))
    comp = controlled.compose_controlled(F, sol.controlled)
    ode_params = norms.BesovParams(0.9, norms.INF, norms.INF)
    ode = young.young_ode_solve(young.scalar_linear_field(), _signals(1, 12),
                                1.0, ode_params)
    f = _signals(2, 12)
    young_int = young.young_integral(f, f, young.YoungRegime(
        ode_params, ode_params), diagnostics=True).sewing
    return [sol.path.values, comp.Y, comp.Yp, ode.path.values,
            controlled.davie_residual(sol.controlled, F)["norm"],
            young_int.integral.values, young_int.remainder_norm]


def test_solvers_equal_einsum(einsum_only):
    want = _solver_outputs()
    einsum_only.undo()
    for got, ref in zip(_solver_outputs(), want, strict=True):
        _same(got, ref, "RDE, composition, Young ODE and Young integral")


def test_rough_metric_of_a_lift_with_itself_is_zero():
    grid = UniformGrid(1.0, 8)
    X, X2 = brownian_lift(2, grid, 11), brownian_lift(2, grid, 11)
    assert X2 is not X
    assert rough_metric(X, X) == rough_metric(X, X2) == 0.0
