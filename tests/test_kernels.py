"""The small-contraction kernels against a plain reference of the library's
summation order, bit for bit.

Every small batched contraction (lift level products, a dX + b XX, Df f, the
vector fields, the Young ODE trapezoid, the magnitudes) adds its products in
one order, defined in `norms._add_lanes`: the even-indexed products into
lane 0 and the odd-indexed ones into lane 1, each in index order, then
lane 0 + lane 1, then + 0.0 (magnitudes without the + 0.0).  The reference
below writes that order out term by term over whole arrays; each kernel and
call site is compared with it at batch sizes from 1 to 5000, in contiguous,
strided and one-column-broadcast layouts, with signed zeros.  The kernels
take component planes, one row per component and one column per batch
entry; the reference of the level products (`_outer`) is written out one
component pair at a time.  A batch entry gives the same bits however it is
batched.

The test names keep the word "einsum": numpy's einsum adds in this lane
order on unit-stride operands, and these kernels first replaced it.
"""
import itertools

import numpy as np
import pytest

from besov_rough import controlled, norms, rough, sewing, stochlab, young
from besov_rough._rng import rng_for
from besov_rough.grid import GridPath, UniformGrid
from besov_rough.norms import _add_lanes, _outer
from besov_rough.rough import (
    brownian_lift,
    canonical_lift,
    geometric_lift,
    homogeneous_distance_level2,
    lyons_extend,
    rough_metric,
)

ROWS = [1, 2, 3, 1023, 1024, 1025, 5000]
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
        f"{what}: the kernel differs from the lane-order reference")


# -- the reference: the lane order written out term by term ------------------


def _lanes(products, plus_zero=True):
    """Sum over the last axis of `products`: lane 0 = ((0 + p0) + p2) + ...,
    lane 1 = ((0 + p1) + p3) + ..., then lane 0 + lane 1 (+ 0.0)."""
    lanes = [np.zeros(products.shape[:-1]), np.zeros(products.shape[:-1])]
    for t in range(products.shape[-1]):
        lanes[t % 2] = lanes[t % 2] + products[..., t]
    total = lanes[0] + lanes[1]
    return total + 0.0 if plus_zero else total


def _ref_add_lanes(products):
    return _lanes(np.stack(list(products), axis=-1))


def _lane_sum(x, y):
    """sum_t x[t] y[t] over the component planes x and y (T, ...)."""
    return _add_lanes(x[t] * y[t] for t in range(len(x)))


def _ref_lane_sum(x, y):
    return _lanes(np.moveaxis(x * y, 0, -1))


def _ref_outer(u, v):
    """Plane a*q + b: u[a] v[b] + 0.0 for the planes u (p, B), v (q, B)."""
    return np.stack([u[a] * v[b] + 0.0
                     for a in range(len(u)) for b in range(len(v))])


def _ref_mags(d):
    return np.sqrt(_lanes(d * d, plus_zero=False))


def _ref_plane_mags(planes):
    """`_ref_mags` of component planes (m, ...)."""
    return _ref_mags(np.moveaxis(planes, 0, -1))


def _ref_band_norm(planes, mesh, p):
    return norms._band_lp(_ref_plane_mags(planes), mesh, p)


def _ref_lead(a, dx, b=None, xx=None):
    lead = _lanes(a * dx[:, None])
    if b is None:
        return lead
    m, n = b.shape[1:3]
    terms = b * np.swapaxes(xx, 1, 2)[:, None]  # j*n + k: b[j, k] XX[k, j]
    return lead + _lanes(terms.reshape(len(terms), m, n * n))


def _rows_first(x):
    return np.moveaxis(x, -1, 0)


def _ref_plane_lead(a, dx, b=None, xx=None):
    """`_ref_lead` on the component planes `_expansion_lead` takes."""
    rows = [_rows_first(a), _rows_first(dx)]
    if b is not None:
        n = len(dx)
        rows += [_rows_first(b), _rows_first(xx).reshape(-1, n, n)]
    return _ref_lead(*rows).T


def _lead_on_rows(a, dx, b=None, xx=None):
    """`_expansion_lead` called on row-first operands: its planes are
    views of them (xx (B, n, n) gives the rows k*n + j), its result is
    transposed back."""
    planes = [np.moveaxis(x, 0, -1) for x in (a, dx)]
    if b is not None:
        planes += [np.moveaxis(b, 0, -1),
                   np.moveaxis(xx, 0, -1).reshape(-1, xx.shape[0])]
    return controlled._expansion_lead(*planes).T


def _ref_chain(d, y):
    """sum_c d[a, j, c] y[c, k] on the planes d (m', n', m, B), y (m, n, B)."""
    terms = d[:, :, None] * np.swapaxes(y, 0, 1)[None, None]
    return _lanes(np.moveaxis(terms, 3, -1))


def _on_rows(kernel):
    """A kernel of component planes called on row-first operands, its
    result moved back to rows."""
    return lambda *ops: np.moveaxis(
        kernel(*(np.moveaxis(o, 0, -1) for o in ops)), -1, 0)


def _ref_hom(dw, xx):
    mag1 = _ref_mags(dw)
    mag2 = _ref_mags(xx.reshape(len(xx), -1))
    xx_inv = dw[:, :, None] * dw[:, None, :] - xx
    mag2i = _ref_mags(xx_inv.reshape(len(xx), -1))
    return 0.5 * (np.maximum(mag1, np.sqrt(2.0 * mag2))
                  + np.maximum(mag1, np.sqrt(2.0 * mag2i)))


def _ref_windows(w, ks, level2):
    """The distances over the windows of k cells of a path w (nodes, dim),
    for each k in ks: the left-sum level-2 lift's or the level-1 ones."""
    dim = w.shape[1]
    q = np.concatenate([np.zeros((1, dim, dim)), np.cumsum(
        w[:-1, :, None] * np.diff(w, axis=0)[:, None, :], axis=0)])
    for k in ks:
        dw = w[k:] - w[:-k]
        yield (_ref_hom(dw, q[k:] - q[:-k] - w[:-k, :, None] * dw[:, None, :])
               if level2 else _ref_mags(dw))


def _ref_window_table(paths, ns, level, p, hurst, level2):
    table = {n: [] for n in ns}
    for planes in paths:
        d_all = _ref_windows(np.ascontiguousarray(planes.T),
                             [1 << (level - n) for n in ns], level2)
        for n, d in zip(ns, d_all):
            table[n].append(float(2.0 ** (n * p * hurst) * np.sum(d[:-1] ** p)
                                  * UniformGrid(1.0, level).mesh))
    return {n: np.array(vals) for n, vals in table.items()}


@pytest.fixture
def reference_only(monkeypatch):
    """Route every call site through the reference forms above."""
    for mod in (norms, sewing):
        monkeypatch.setattr(mod, "_band_norm", _ref_band_norm)
    for mod in (norms, rough, stochlab):
        monkeypatch.setattr(mod, "_plane_mags", _ref_plane_mags)
    for mod in (rough, young):
        monkeypatch.setattr(mod, "_outer", _ref_outer)
    for mod in (young, controlled):
        monkeypatch.setattr(mod, "_add_lanes", _ref_add_lanes)
    monkeypatch.setattr(controlled, "_expansion_lead", _ref_plane_lead)
    monkeypatch.setattr(stochlab, "_window_table", _ref_window_table)
    return monkeypatch


# -- the helpers ----------------------------------------------------------------


@pytest.mark.parametrize("terms", range(1, 10))
def test_lane_sum_is_einsums_order(terms):
    """`_add_lanes` of the products of two stacks of planes (terms, B)."""
    rng = np.random.default_rng(terms)
    for rows in ROWS:
        for x, y in zip(_layouts(_rand(rng, (terms, rows))),
                        _layouts(_rand(rng, (terms, rows)))):
            _same(_lane_sum(x, y), _ref_lane_sum(x, y), f"lane sum of {terms}")
            _same(_lane_sum(x[:, :1], y), _ref_lane_sum(x[:, :1], y),
                  f"one-column lane sum of {terms}")
    neg, one = np.full((terms, 1024), -0.0), np.ones((terms, 1))
    for rows in (1, 1024):
        _same(_lane_sum(neg[:, :rows], one), np.zeros(rows), "a -0.0 sum")


@pytest.mark.parametrize("p, q", DIMS + [(4, 8), (8, 4), (16, 2)])
def test_outer_equals_einsum(p, q):
    rng = np.random.default_rng(10 * p + q)
    for rows in ROWS:
        for u in _layouts(_rand(rng, (p, rows))):
            for v in _layouts(_rand(rng, (q, rows))):
                _same(_outer(u, v), _ref_outer(u, v), f"outer {p}x{q}")
        one = _rand(rng, (p, 1))
        v = _rand(rng, (q, rows))
        _same(_outer(one, v), _ref_outer(one, v), "one-column outer")
        _same(_outer(v, one[:1]), _ref_outer(v, one[:1]), "one-column outer")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 16])
def test_mags_equal_einsum(m):
    rng = np.random.default_rng(m)
    for shape in [(rows, m) for rows in ROWS] + [(2, 100, m), (3, 300, m), (40, 40, m)]:
        # the magnitudes of a band or band stack (..., k, m), taken on its
        # planes (m, ..., k), the view `band(k).T` the norms read
        for d in _layouts(_rand(rng, shape)):
            # at m = 1 |x| is taken, which is sqrt(x * x) for every x whose
            # square neither overflows nor underflows
            _same(norms._plane_mags(np.moveaxis(d, -1, 0)), _ref_mags(d),
                  f"magnitudes m={m}")
        if len(shape) == 2:
            _same(norms._plane_mags(np.asfortranarray(d).T), _ref_mags(d),
                  f"F-ordered magnitudes m={m}")


@pytest.mark.parametrize("m, n", DIMS)
def test_controlled_increment_equals_einsum(m, n):
    rng = np.random.default_rng(10 * m + n)
    for rows in ROWS:
        terms = [_rand(rng, (rows, m, n)), _rand(rng, (rows, n)),
                 _rand(rng, (rows, m, n, n)), _rand(rng, (rows, n, n))]
        for layout in zip(*map(_layouts, terms)):
            _same(_lead_on_rows(*layout), _ref_lead(*layout),
                  f"a dX + b XX, m={m} n={n}")
            _same(_lead_on_rows(*layout[:2]),
                  _ref_lead(*layout[:2]), f"a dX, m={m} n={n}")
        one_row = [terms[0][:1], terms[1], terms[2][:1], terms[3]]
        _same(_lead_on_rows(*one_row), _ref_lead(*one_row),
              f"one-row coefficients, m={m} n={n}")


@pytest.mark.parametrize("m, n", DIMS)
def test_chain_equals_einsum(m, n):
    rng = np.random.default_rng(10 * m + n)
    for rows in ROWS:
        for mp, n_out in [(m, n), (n, 1)]:  # Df f, and a composed pair
            d, y = _rand(rng, (mp, n_out, m, rows)), _rand(rng, (m, n, rows))
            for dl, yl in zip(_layouts(d), _layouts(y)):
                _same(controlled._chain(dl, yl), _ref_chain(dl, yl),
                      f"Df f, m={m} n={n}")


@pytest.mark.parametrize("m, n", DIMS)
def test_linear_field_equals_einsum(m, n):
    """The linear and the sigmoid field on planes Y (m, B),
    f(Y)[a, j, k] = sum_b W[a, j, b] Y[b, k] (under tanh for the sigmoid),
    and their first and second derivatives."""
    rng = np.random.default_rng(10 * m + n)
    mats = [_rand(rng, (m, m)) for _ in range(n)]
    linear, sigmoid = young.linear_field(mats), young.sigmoid_field(m, n)
    w_linear = np.transpose(np.stack(mats, axis=-1), (0, 2, 1))
    w_sigmoid = np.zeros((m, n, m))
    for a, j in itertools.product(range(m), range(n)):
        w_sigmoid[a, j, (a + j) % m] = 1.0
    for rows in ROWS:
        for Y in _layouts(_rand(rng, (m, rows))):
            what = f"m={m} n={n} rows={rows}"
            _same(linear.fun(Y), _lanes(np.moveaxis(
                w_linear[..., None] * Y, 2, -1)), f"linear field, {what}")
            _same(linear.dfun(Y), np.repeat(w_linear[..., None], rows, -1),
                  f"linear Df, {what}")
            _same(linear.d2fun(Y), np.zeros((m, n, m, m, rows)),
                  f"linear D2f, {what}")
            t = np.tanh(_lanes(np.moveaxis(w_sigmoid[..., None] * Y, 2, -1)))
            _same(sigmoid.fun(Y), t, f"sigmoid field, {what}")
            s, w = 1.0 - t**2, w_sigmoid[..., None]
            _same(sigmoid.dfun(Y), s[:, :, None] * w, f"sigmoid Df, {what}")
            _same(sigmoid.d2fun(Y), (-2.0 * t * s)[:, :, None, None]
                  * w[:, :, :, None] * w[:, :, None], f"sigmoid D2f, {what}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_homogeneous_distance_equals_einsum(n):
    rng = np.random.default_rng(n)
    for rows in ROWS:
        for dw, xx in zip(_layouts(_rand(rng, (rows, n))),
                          _layouts(_rand(rng, (rows, n, n)))):
            _same(homogeneous_distance_level2(dw, xx), _ref_hom(dw, xx),
                  f"level-2 distance n={n}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plane_distance_equals_einsum(n):
    rng = np.random.default_rng(n)
    for rows in ROWS:
        dw, xx = _rand(rng, (rows, n)), _rand(rng, (rows, n, n))
        planes = [np.ascontiguousarray(x.reshape(rows, -1).T) for x in (dw, xx)]
        _same(rough._plane_distance(*planes), _ref_hom(dw, xx),
              f"level-2 distance on planes n={n}")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 16])
def test_plane_mags_equal_einsum(m):
    rng = np.random.default_rng(m)
    for rows in ROWS:
        d = _rand(rng, (rows, m))
        _same(norms._plane_mags(np.ascontiguousarray(d.T)), _ref_mags(d),
              f"magnitudes on planes m={m}")
        _same(norms._plane_mags(d.T), _ref_mags(d),
              f"magnitudes on strided planes m={m}")


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_window_table_equals_einsum(monkeypatch, dim):
    """Every window distance and every table entry, on paths whose windows
    of 4, 2 and 1 cells have ROWS, ROWS + 2 and ROWS + 3 rows."""
    seen = []
    for name in ("_plane_distance", "_plane_mags"):
        kernel = getattr(stochlab, name)
        monkeypatch.setattr(stochlab, name, lambda *a, kernel=kernel: (
            seen.append(kernel(*a)) or seen[-1]))
    rng = np.random.default_rng(dim)
    for rows in ROWS:
        w = _rand(rng, (rows + 4, dim))
        w[1::5] = w[::5][: len(w[1::5])]  # some zero increments
        for level2 in (True, False):
            seen.clear()
            args = [0, 1, 2], 2, 3.0, 0.5, level2
            got = stochlab._window_table([np.ascontiguousarray(w.T)], *args)
            want = _ref_window_table([w.T], *args)
            for d, ref in zip(seen, _ref_windows(w, [4, 2, 1], level2),
                              strict=True):
                _same(d, ref, f"window distances dim={dim} rows={rows}")
            for n in want:
                _same(got[n], want[n], f"window table dim={dim} rows={rows}")


# -- the plane germs: R, D and the signature levels ----------------------------

GERM_NODES = 2049
# bands of 2048, 1025, 1024, 1023 and 2 rows
GERM_SHIFTS = [1, GERM_NODES - 1025, GERM_NODES - 1024, GERM_NODES - 1023,
               GERM_NODES - 2]


def _ref_level(X, k, ii, jj):
    """Level k of S_ii^{-1} (x) S_jj as rows (len, n^k), the terms of
    `_mul_level` in its order, from an inverse built over every node at
    once, with the explicit pairs written in."""
    inv, sig = rough._inv_levels(X._sig, X.n, X.depth), X._sig
    out = sig[k][:, jj] + 0.0
    for a in range(1, k):
        out = out + _ref_outer(inv[a][:, ii], sig[k - a][:, jj])
    out = (out + inv[k][:, ii]).T
    for key, value in zip(*X._pairs.get(k, ((), ()))):
        out[ii * X.grid.n + jj == key] = value
    return out


def _germ_fields():
    """(name, field, row reference) for R, D and the levels of a lift whose
    path, coefficients and values hold signed zeros, and of the same lift
    with a Chen fault at (256, 512) on level 2 (criterion 09) and an
    explicit pair on level 1."""
    rng = np.random.default_rng(14)
    grid = UniformGrid(1.0, 11)
    w = _rand(rng, (GERM_NODES, 2))
    w[1::5] = w[::5][: len(w[1::5])]  # some zero increments
    X = canonical_lift(GridPath(grid, w), 2)
    fault = X.level(2).at(256, 512)
    fault[0] += 1e-3
    faulty = X.with_pairs(2, [256], [512], fault).with_pairs(
        1, [3], [700], [[-0.0, 2.5]])
    v, a, b = (_rand(rng, (GERM_NODES, 2) + s) for s in ((), (2,), (2, 2)))
    base = X.base_path().values
    for name, Z in (("lift", X), ("faulty lift", faulty)):
        def ref_d(ii, jj, Z=Z):
            xx = _ref_level(Z, 2, ii, jj).reshape(-1, 2, 2)
            return v[jj] - v[ii] - _ref_lead(a[ii], base[jj] - base[ii],
                                              b[ii], xx)

        planes = (np.moveaxis(x, 0, -1) for x in (base, v, a, b))
        yield (f"D on the {name}", controlled._expansion_remainder(
            grid, *planes, Z.level(2)), ref_d)
        for k in (1, 2):
            yield (f"level {k} of the {name}", Z.level(k),
                   lambda ii, jj, Z=Z, k=k: _ref_level(Z, k, ii, jj))
    yield ("R", controlled.ControlledPath(
        X, v.T, np.moveaxis(a, 0, -1)).remainder,
           lambda ii, jj: v[jj] - v[ii] - _ref_lead(a[ii], base[jj] - base[ii]))


@pytest.mark.parametrize("name, field, ref", list(_germ_fields()),
                         ids=[f[0] for f in _germ_fields()])
def test_plane_germs_equal_the_lane_order_reference(name, field, ref):
    for k in GERM_SHIFTS + [256, 697]:  # the explicit pairs
        idx = np.arange(GERM_NODES - k)
        band = field.band(k)
        _same(band, ref(idx, idx + k), f"{name}, band {k}")
        _same(band, field.pairs(idx, idx + k), f"{name}, band {k} as pairs")


# -- a row's bits do not depend on its batch ---------------------------------


def _row_kernels():
    """(name, kernel, operand shapes with the row axis first)."""
    lin = young.linear_field([np.eye(4) + 0.5 * k for k in range(3)])
    sig = young.sigmoid_field(3, 2)
    for terms in (3, 4, 9):
        yield f"lane sum of {terms}", _on_rows(_lane_sum), [(terms,), (terms,)]
    yield "outer 3x4", lambda u, v: _outer(u.T, v.T).T, [(3,), (4,)]
    for m in (3, 4, 9):
        yield (f"plane magnitudes m={m}", lambda d: norms._plane_mags(d.T),
               [(m,)])
    yield "a dX + b XX", _lead_on_rows, [
        (3, 3), (3,), (3, 3, 3), (3, 3)]
    yield "Df f", _on_rows(controlled._chain), [(4, 3, 4), (4, 3)]
    yield "linear field", _on_rows(lin.fun), [(4,)]
    yield "sigmoid field", _on_rows(sig.fun), [(3,)]
    yield "level-2 distance", homogeneous_distance_level2, [(3,), (3, 3)]


@pytest.mark.parametrize("name, kernel, shapes", list(_row_kernels()),
                         ids=[k[0] for k in _row_kernels()])
def test_a_row_has_the_same_bits_in_any_batch_and_layout(name, kernel, shapes):
    rng = np.random.default_rng(7)
    ops = [_rand(rng, (3000,) + s) for s in shapes]
    whole = kernel(*ops)
    for r in (0, 1717, 2995):
        for width in (1, 5):
            part = kernel(*(o[r:r + width] for o in ops))
            _same(part, whole[r:r + width], f"{name}: rows {r}+{width}")
    for layout in list(zip(*map(_layouts, ops)))[1:]:
        _same(kernel(*layout), whole, f"{name}: strided copy")


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
        inc = rough._mul_levels(X._inv_planes(), X._sig, X.depth)
        out += inc + [rough._hom_levels(inc, n, X.depth)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lifts_and_gauges_equal_einsum(reference_only, n):
    want = _lift_outputs(n)
    reference_only.undo()
    for got, ref in zip(_lift_outputs(n), want, strict=True):
        _same(got, ref, f"lift levels and gauges n={n}")


def _mc_outputs(dim):
    grid = UniformGrid(1.0, 11)  # windows of 1536 to 2044 rows
    paths = [stochlab.brownian_path(grid, rng_for(3, "k", s), dim).values
             for s in range(2)]
    planes = [np.ascontiguousarray(w.T) for w in paths]
    tables = [stochlab._window_table(planes, [2, 5, 9], 11, 3.0, 0.5, lv2)
              for lv2 in (True, False)]
    return [t[k] for t in tables for k in t]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_statistics_equal_einsum(reference_only, dim):
    want = _mc_outputs(dim)
    reference_only.undo()
    for got, ref in zip(_mc_outputs(dim), want, strict=True):
        _same(got, ref, f"window statistics dim={dim}")


def _solver_outputs():
    X = geometric_lift(_signals(2, level=10), 2, norms.BesovParams(
        0.5, norms.INF, norms.INF))
    F = young.rotation_field()
    sol = controlled.rde_solve(F, X, np.array([1.0, 0.5]))
    comp = controlled.compose_controlled(F, sol.controlled)
    sig = controlled.rde_solve(young.sigmoid_field(1, 2), X, np.array([0.3]))
    ode_params = norms.BesovParams(0.9, norms.INF, norms.INF)
    ode = young.young_ode_solve(young.scalar_linear_field(), _signals(1, 12),
                                1.0, ode_params)
    f = _signals(2, 12)
    young_int = young.young_integral(f, f, young.YoungRegime(
        ode_params, ode_params), diagnostics=True).sewing
    return [sol.path.values, comp.Y, comp.Yp, ode.path.values,
            controlled.davie_residual(sol.controlled, F)["norm"],
            sig.path.values,
            controlled.davie_residual(sig.controlled, young.sigmoid_field(
                1, 2))["norm"],
            young_int.integral.values, young_int.remainder_norm]


def test_solvers_equal_einsum(reference_only):
    """The RDE (Picard seed, sweeps, Davie remainders), the composition,
    the Young ODE trapezoid and the Young integral's product germ."""
    want = _solver_outputs()
    reference_only.undo()
    for got, ref in zip(_solver_outputs(), want, strict=True):
        _same(got, ref, "RDE, composition, Young ODE and Young integral")


def test_rough_metric_of_a_lift_with_itself_is_zero():
    grid = UniformGrid(1.0, 8)
    X, X2 = brownian_lift(2, grid, 11), brownian_lift(2, grid, 11)
    assert X2 is not X
    assert rough_metric(X, X) == rough_metric(X, X2) == 0.0
