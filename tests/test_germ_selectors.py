"""Band access by slices against the index-array reference, per germ kind.

`TwoParamField.band(k)` hands the germ two slices and `pairs` hands it two
index arrays; every germ kind must give the same bits either way, and
`to_dense()` (one `pairs` call per block of rows) must equal the
band-by-band array.
"""
import tracemalloc

import numpy as np
import pytest

from besov_rough.controlled import ControlledPath, _expansion_remainder
from besov_rough.grid import (
    GridPath,
    TwoParamField,
    UniformGrid,
    _frozen_germ,
    delta,
    load_germ_csv,
)
from besov_rough.norms import INF, BesovParams
from besov_rough.rough import (
    _inv_levels,
    _mul_levels,
    brownian_lift,
    geometric_lift,
    lyons_extend,
)
from besov_rough.sewing import SewingInput, dyadic_riemann, sew
from besov_rough.stochlab import DiscreteMartingale, paraproduct, square_function
from besov_rough.young import product_germ

GRID = UniformGrid(1.0, 5)
PARAMS = BesovParams(0.45, 8.0, 8.0)


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _band_loop_dense(F):
    # the band-by-band construction `to_dense` replaced
    n = F.grid.n
    dense = np.zeros((n, n, F.dim))
    for k in range(n):
        idx = np.arange(n - k)
        dense[idx, idx + k] = F.band(k)
    return dense


def _assert_bands_match_pairs(F, shifts=None):
    n = F.grid.n
    for k in range(n) if shifts is None else shifts:
        idx = np.arange(n - k, dtype=np.intp)
        assert _same(F.band(k), F.pairs(idx, idx + k)), f"band {k}"


def _path(seed, dim=2, grid=GRID):
    rng = np.random.default_rng(seed)
    return GridPath(grid, np.cumsum(rng.standard_normal((grid.n, dim)), axis=0))


def _lift(flavor="ito", seed=11):
    return brownian_lift(2, GRID, seed, flavor=flavor, params=PARAMS)


def _field_backed(depth=2):
    # explicit pairs at the top level of a lift: stored values on three bands
    X = lyons_extend(_lift(), depth)
    values = np.random.default_rng(21).standard_normal((3, 2**depth))
    return X.with_pairs(depth, [1, 4, 7], [2, 20, 32], values)


def _controlled():
    X = geometric_lift(_path(3), 2, BesovParams(0.5, INF, INF))
    rng = np.random.default_rng(4)
    return ControlledPath(X, rng.standard_normal((GRID.n, 2)).T,
                          np.moveaxis(rng.standard_normal((GRID.n, 2, 2)), 0, -1))


def _expansion(m, X=None):
    X = X or _controlled().X
    n = X.grid.n
    rng = np.random.default_rng(5 + m)
    rows = (X.base_path().values, rng.standard_normal((n, m)),
            rng.standard_normal((n, m, 2)), rng.standard_normal((n, m, 2, 2)))
    return _expansion_remainder(
        X.grid, *(np.moveaxis(r, 0, -1) for r in rows), X.level(2))


def _csv_germ(tmp_path):
    rng = np.random.default_rng(6)
    n = GRID.n
    ii, jj = np.triu_indices(n)
    keep = rng.random(len(ii)) < 0.4
    keep[(jj == n - 1) & (ii == 0)] = True
    fname = tmp_path / "germ.csv"
    with open(fname, "w") as fh:
        fh.write("i,j,v0,v1\n")
        for i, j in zip(ii[keep], jj[keep]):
            a, b = rng.standard_normal(2)
            fh.write(f"{i},{j},{float(a)!r},{float(b)!r}\n")
    return load_germ_csv(fname)


def _martingale():
    return DiscreteMartingale.generate("gaussian", GRID.n_cells,
                                       np.random.default_rng(8))


KINDS = {
    "delta": lambda tmp: delta(_path(1)),
    "dense": lambda tmp: TwoParamField(
        GRID, 3, dense=np.random.default_rng(2).standard_normal(
            (GRID.n, GRID.n, 3))),
    "materialize": lambda tmp: product_germ(_path(1), _path(2)).materialize(),
    "product": lambda tmp: product_germ(_path(1), _path(2)),
    "csv": _csv_germ,
    "ito-1": lambda tmp: _lift().level(1),
    "ito-2": lambda tmp: _lift().level(2),
    "strat-2": lambda tmp: _lift("stratonovich").level(2),
    "ext-1": lambda tmp: lyons_extend(_lift(), 3).level(1),
    "ext-2": lambda tmp: lyons_extend(_lift(), 3).level(2),
    "ext-3": lambda tmp: lyons_extend(_lift(), 3).level(3),
    "field-backed-2": lambda tmp: _field_backed().level(2),
    "field-backed-ext-3": lambda tmp: _field_backed(3).level(3),
    "sig-restrict-2": lambda tmp: _lift().restrict(8, 24).level(2),
    "remainder": lambda tmp: _controlled().remainder,
    "expansion-b-m1": lambda tmp: _expansion(1),
    "expansion-b-m2": lambda tmp: _expansion(2),
    "sew-remainder": lambda tmp: sew(SewingInput(
        germ=product_germ(_path(1), _path(2)), gamma=2.0, p2=INF, q2=INF),
        diagnostics=False).remainder,
    "square-function": lambda tmp: square_function(_martingale()),
    "paraproduct": lambda tmp: paraproduct(
        delta(_path(9, dim=1)), _martingale()),
    "add": lambda tmp: _lift().level(1) + delta(_path(1)),
    "sub": lambda tmp: _controlled().remainder - delta(_path(2)),
    "mul": lambda tmp: 2.5 * _lift("stratonovich").level(2),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_band_equals_pairs_and_dense(tmp_path, kind):
    F = KINDS[kind](tmp_path)
    _assert_bands_match_pairs(F)
    assert _same(F.to_dense(), _band_loop_dense(F))


def test_to_dense_over_several_row_blocks():
    # 129 rows: blocks of 64, 64 and 1 row (a one-pair `pairs` call)
    grid = UniformGrid(1.0, 7)
    X = brownian_lift(2, grid, 11, params=PARAMS)
    for F in (X.level(2), lyons_extend(X, 3).level(3), _expansion(1, X),
              _expansion(2, X), delta(_path(1, grid=grid)).materialize()):
        assert _same(F.to_dense(), _band_loop_dense(F))


def test_to_dense_peak_memory_near_its_output():
    F = brownian_lift(2, UniformGrid(1.0, 10), 3).level(2)
    F.band(1)  # the inverse prefix is built once, outside the measurement
    nbytes = F.grid.n**2 * F.dim * 8
    for build in (F.to_dense, F.materialize):  # materialize copies nothing
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nbytes, build


def test_frozen_germ_takes_over_its_array():
    arr = np.random.default_rng(3).standard_normal((2, GRID.n, GRID.n))
    F = TwoParamField(GRID, 2, germ=_frozen_germ(arr))
    assert not arr.flags.writeable
    idx = np.arange(GRID.n - 2)
    assert _same(F.band(2), arr[:, idx, idx + 2].T)


def test_dyadic_riemann_bands_match_pairs():
    # defined only on pairs whose span is a multiple of 2^n, so no to_dense
    A = product_germ(_path(1), _path(2))
    for level in (1, 2, 3):
        step = 1 << level
        _assert_bands_match_pairs(dyadic_riemann(A, level),
                                  range(0, GRID.n, step))


def test_dense_copies_its_input():
    arr = np.random.default_rng(0).standard_normal((GRID.n, GRID.n, 1))
    F = TwoParamField(GRID, 1, dense=arr)
    before = F.band(1).copy()
    arr[0, 1, 0] = 7.0
    assert _same(F.band(1), before)
    assert _same(F.to_dense(), _band_loop_dense(F))
    flat = np.random.default_rng(1).standard_normal((GRID.n, GRID.n))
    G = TwoParamField(GRID, 1, dense=flat)
    flat[2, 3] = 7.0
    assert G.at(2, 3)[0] != 7.0


def _einsum_mul_levels(x, y, n, depth):
    # the zero-started einsum product that `_mul_levels` replaced
    batch = max(len(x[0]), len(y[0]))
    x = [np.broadcast_to(lv, (batch, lv.shape[1])) for lv in x]
    y = [np.broadcast_to(lv, (batch, lv.shape[1])) for lv in y]
    out = []
    for k in range(depth + 1):
        acc = np.zeros((batch, n**k))
        for a in range(k + 1):
            acc += np.einsum("bi,bj->bij", x[a], y[k - a]).reshape(batch, -1)
        out.append(acc)
    return out


def _einsum_inv_levels(x, n, depth):
    # the inverse that `_inv_levels` replaced: 1 + m + m^2 + ..., m = 1 - x
    minus = [np.zeros_like(x[0])] + [-lv for lv in x[1:]]
    inv = [np.full((len(x[0]), n**k), float(k == 0)) for k in range(depth + 1)]
    power = minus
    for _ in range(depth):
        inv = [s + t for s, t in zip(inv, power)]
        power = _einsum_mul_levels(power, minus, n, depth)
    return inv


def _planes(levels):
    """Batched levels (rows, n^k) as the component planes (n^k, rows) of
    `rough`, and back."""
    return [lv.T for lv in levels]


def _levels(rng, scalar, rows, n=2, depth=3):
    out = [np.full((rows, 1), scalar)]
    for k in range(1, depth + 1):
        lv = rng.standard_normal((rows, n**k))
        lv[:, 0] = -0.0  # a signed zero must come out as the reference's
        out.append(lv)
    return out


@pytest.mark.parametrize("rows", [(7, 7), (1, 7), (7, 1)])
@pytest.mark.parametrize("scalars", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                                     (0.5, 2.0)])
def test_mul_levels_matches_einsum_reference(scalars, rows):
    rng = np.random.default_rng(12)
    x = _levels(rng, scalars[0], rows[0])
    y = _levels(rng, scalars[1], rows[1])
    got = _mul_levels(_planes(x), _planes(y), 3)
    for got, want in zip(_planes(got), _einsum_mul_levels(x, y, 2, 3)):
        assert _same(got, want)


def test_inv_levels_matches_einsum_reference():
    x = _levels(np.random.default_rng(13), 1.0, 9)
    got = _inv_levels(_planes(x), 2, 3)
    for got, want in zip(_planes(got), _einsum_inv_levels(x, 2, 3)):
        assert _same(got, want)
