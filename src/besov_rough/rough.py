"""Truncated tensor algebra and level-N Besov rough paths.

Lifts are stored through their node-wise signature prefixes S_t (partial
products of per-cell group increments), so every level field is available as
an exact lazy closure X_{st} = S_s^{-1} (x) S_t: Chen's relation holds by
construction up to float roundoff, and band access costs O(1) per pair.

Tensor components are dense, row-major multi-index, flattened to (n^k,) per
level; base dimension and depth are capped at 4.  A batch of B elements is
held as component planes, one (n^k, B) array per level, in the tensor
algebra and in the stored lifts alike.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from ._rng import rng_for
from .errors import RegimeError
from .grid import GridPath, TwoParamField, UniformGrid, _find, _indices
from .norms import (
    INF,
    BesovParams,
    _outer,
    _plane_mags,
    two_param_metric,
    two_param_norm,
)
from .signals import brownian_path

__all__ = [
    "TensorElement",
    "tensor_mul",
    "tensor_inv",
    "tensor_exp",
    "homogeneous_norm",
    "RoughPath",
    "canonical_lift",
    "geometric_lift",
    "brownian_lift",
    "fbm_path",
    "fbm_covariance",
    "dilate",
    "rough_besov_norm",
    "rough_metric",
    "chen_residual",
    "lyons_extend",
    "homogeneous_distance_level2",
]

MAX_DIM = 4
MAX_LEVEL = 4


def _check_caps(n: int, depth: int):
    if n > MAX_DIM or depth > MAX_LEVEL:
        raise ValueError(f"supported range is n <= {MAX_DIM}, N <= {MAX_LEVEL}")
    if n < 1 or depth < 1:
        raise ValueError("need n >= 1 and N >= 1")


# ---------------------------------------------------------------------------
# batched level arithmetic: levels[k] has shape (n^k, B), k = 0..N


def _identity_levels(batch: int, n: int, depth: int):
    return [np.full((n**k, batch), float(k == 0)) for k in range(depth + 1)]


def _mul_level(x, y, k: int):
    """Level k of x (x) y: the terms x[a] (x) y[k-a] added for a = 0..k in
    that order, from 0; a one-column batch broadcasts.  A factor whose
    scalar level is exactly 1 enters its term unmultiplied (0 + 1*v is
    v + 0.0)."""
    batch = max(x[0].shape[1], y[0].shape[1])
    for a in range(k + 1):
        u, v = x[a], y[k - a]
        if a == 0 and (u == 1.0).all():
            term = v
        elif a == k and (v == 1.0).all():
            term = u
        else:
            term = _outer(u, v)
        if a == 0:
            acc = np.add(term, 0.0, out=np.empty((len(term), batch)))
        else:
            acc += term
    return acc


def _mul_levels(x, y, depth: int):
    return [_mul_level(x, y, k) for k in range(depth + 1)]


def _series(a, n: int, depth: int, divisor):
    """sum of a^j / divisor(j) over j = 0..depth, added in that order, for
    batched levels a with zero scalar level."""
    out = power = _identity_levels(a[0].shape[1], n, depth)
    for j in range(1, depth + 1):
        power = _mul_levels(power, a, depth)
        out = [s + t / divisor(j) for s, t in zip(out, power)]
    return out


def _inv_levels(x, n: int, depth: int):
    if not np.allclose(x[0], 1.0):
        raise ValueError("inverse defined for group elements with scalar part 1")
    minus = [np.zeros_like(x[0])] + [-lv for lv in x[1:]]
    return _series(minus, n, depth, lambda j: 1)  # x^-1 = sum (1 - x)^j


def _exp_levels(a, n: int, depth: int):
    if np.any(a[0] != 0.0):
        raise ValueError("exp expects zero scalar part")
    return _series(a, n, depth, math.factorial)


def _gauge_levels(x, depth: int):
    """N(x) = max_k (k! |x^(k)|)^{1/k}, batched; |.| is Euclidean."""
    best = np.zeros(x[0].shape[1])
    for k in range(1, depth + 1):
        mag = _plane_mags(x[k])
        np.maximum(best, (math.factorial(k) * mag) ** (1.0 / k), out=best)
    return best


def _hom_levels(x, n: int, depth: int):
    return 0.5 * (_gauge_levels(x, depth) + _gauge_levels(_inv_levels(x, n, depth),
                                                          depth))


class TensorElement:
    """Element of the level-N truncated tensor algebra over R^n."""

    def __init__(self, n: int, levels):
        depth = len(levels) - 1
        _check_caps(n, max(depth, 1))
        self.n = n
        self.depth = depth
        self.levels = [np.asarray(lv, dtype=float).reshape(-1) for lv in levels]
        for k, lv in enumerate(self.levels):
            if lv.size != n**k:
                raise ValueError(f"level {k} must have n^{k} = {n**k} entries")

    @classmethod
    def identity(cls, n: int, depth: int) -> "TensorElement":
        return cls(n, [np.ones(1) if k == 0 else np.zeros(n**k)
                       for k in range(depth + 1)])

    def _batched(self):
        return [lv[:, None] for lv in self.levels]

    def level(self, k: int) -> np.ndarray:
        return self.levels[k].reshape((self.n,) * k) if k else self.levels[0][0]


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    if x.n != y.n or x.depth != y.depth:
        raise ValueError("algebra mismatch")
    out = _mul_levels(x._batched(), y._batched(), x.depth)
    return TensorElement(x.n, [lv[:, 0] for lv in out])


def tensor_inv(x: TensorElement) -> TensorElement:
    out = _inv_levels(x._batched(), x.n, x.depth)
    return TensorElement(x.n, [lv[:, 0] for lv in out])


def tensor_exp(v, depth: int) -> TensorElement:
    """exp of a level-1 vector in the step-`depth` nilpotent algebra."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    a = [np.zeros((1, 1)), v[:, None]] + [np.zeros((n**k, 1))
                                          for k in range(2, depth + 1)]
    out = _exp_levels(a, n, depth)
    return TensorElement(n, [lv[:, 0] for lv in out])


def homogeneous_norm(x: TensorElement) -> float:
    """Dilation-homogeneous gauge (symmetrized with the inverse)."""
    return float(_hom_levels(x._batched(), x.n, x.depth)[0])


def dilate_element(x: TensorElement, lam: float) -> TensorElement:
    return TensorElement(x.n, [lam**k * lv for k, lv in enumerate(x.levels)])


# ---------------------------------------------------------------------------
# rough paths


class RoughPath:
    """Level-N rough path over R^n with Besov parameters attached.

    Stored as its node-wise signature prefixes S_t = X_{0,t}, one component
    plane array sig[k] (n^k, nodes) per level k = 0..N; every increment is
    X_st = S_s^{-1} (x) S_t.  The inverse prefixes, in the same layout,
    are built once, when first needed.  A level may also hold explicit
    pairs: the values at some pairs (i, j), 0 < i < j, stored instead of
    computed and read back bit for bit (for example an injected Chen
    fault), as sorted keys i * nodes + j and a (len, n^k) array.  The base
    path is level 1 of the prefixes, kept as frozen planes `base_planes`
    (n, nodes) starting at 0, which `base_path()` holds uncopied.
    """

    def __init__(self, grid: UniformGrid, params: BesovParams, sig, pairs=None):
        self.n = len(sig[1])
        self.depth = len(sig) - 1
        _check_caps(self.n, self.depth)
        self.grid = grid
        self.params = params
        self._sig = sig
        self._siginv = None
        self._pairs = pairs or {}  # level k -> (keys, values)
        self.base_planes = sig[1] - sig[1][:, :1]
        self._base = GridPath._from_planes(grid, self.base_planes)

    def with_pairs(self, k: int, ii, jj, values) -> "RoughPath":
        """This path with the level-k values at the pairs (ii, jj) given as
        `values` (len, n^k): explicit pairs, replacing those the level held.
        They need 0 < ii < jj < nodes, at most one per pair and at most
        `grid.n` per level, so a path stays O(n)."""
        ii, jj = np.asarray(ii, dtype=np.intp), np.asarray(jj, dtype=np.intp)
        if not (1 <= k <= self.depth
                and ((0 < ii) & (ii < jj) & (jj < self.grid.n)).all()):
            raise ValueError(f"explicit pairs need a level in 1..{self.depth}"
                             f" and 0 < i < j < {self.grid.n}")
        keys, order = np.unique(ii * self.grid.n + jj, return_index=True)
        if len(ii) > min(len(keys), self.grid.n):
            raise ValueError(f"{len(ii)} explicit pairs at level {k}; need"
                             f" distinct pairs, at most grid.n = {self.grid.n}")
        values = np.asarray(values, dtype=float).reshape(len(ii), self.n**k)
        pairs = {**self._pairs, k: (keys, values[order])}
        if not len(keys):
            del pairs[k]
        return RoughPath(self.grid, self.params, self._sig, pairs)

    def _require_chen(self, what: str):
        if self._pairs:
            raise RegimeError(f"{what} needs a multiplicative functional; this"
                              " path holds explicit pairs")

    # -- internals ------------------------------------------------------------
    def _inv_planes(self):
        """The inverse prefixes S_t^{-1} (n^k, nodes), built once in blocks
        of about `_INV_BYTES` of levels: `_inv_levels` works node by node,
        so the blocks keep the bits and bound its temporaries."""
        if self._siginv is None:
            nodes = self.grid.n
            inv = [np.empty((self.n**k, nodes)) for k in range(self.depth + 1)]
            step = max(1, _INV_BYTES // (8 * sum(len(p) for p in inv)))
            for lo in range(0, nodes, step):
                block = [lv[:, lo:lo + step] for lv in self._sig]
                for plane, part in zip(inv, _inv_levels(block, self.n,
                                                        self.depth)):
                    plane[:, lo:lo + step] = part
            self._siginv = inv
        return self._siginv

    def _put_pairs(self, k: int, ii, jj, planes):
        """`planes`, the level-k values (n^k, len) at the selectors ii, jj,
        with the explicit pairs among them written in."""
        if k in self._pairs:
            keys, values = self._pairs[k]
            pos, hit = _find(keys, _indices(ii) * self.grid.n + _indices(jj))
            planes[:, hit] = values[pos[hit]].T
        return planes

    def pairs_levels(self, ii, jj):
        """Group increments X_{ii -> jj} as batched levels (len, n^k): the
        transposes of component planes, which `.T` gives back uncopied."""
        ii = np.asarray(ii, dtype=np.intp)
        jj = np.asarray(jj, dtype=np.intp)
        x = [lv[:, ii] for lv in self._inv_planes()]
        y = [lv[:, jj] for lv in self._sig]
        out = _mul_levels(x, y, self.depth)
        for k in self._pairs:
            self._put_pairs(k, ii, jj, out[k])
        return [lv.T for lv in out]

    def level(self, k: int) -> TwoParamField:
        """Level-k component as a TwoParamField with n^k entries: the germ
        adds the terms of `_mul_level` (S_s^{-1})^(a) (x) S_t^(k-a) for
        a = 0..k, in that order, as whole rows of the component planes.
        It leaves out the `+ 0.0` of `_mul_level`'s first term and outer
        products: they change only the sign of a zero partial sum, and the
        last term, a level of the inverse, is never -0.0 (`_series` starts
        each level at +0.0), so the sums keep their bits."""
        if not 1 <= k <= self.depth:
            raise IndexError(f"level {k} outside 1..{self.depth}")

        def germ(ii, jj):
            inv, sig = self._inv_planes(), self._sig
            out = sig[k][:, jj]
            for a in range(1, k):
                term = inv[a][:, None, ii] * sig[k - a][None, :, jj]
                out = out + term.reshape(out.shape)
            return self._put_pairs(k, ii, jj, out + inv[k][:, ii])

        return TwoParamField(self.grid, self.n**k, germ=germ)

    def base_path(self) -> GridPath:
        return self._base

    def restrict(self, a: int, b: int) -> "RoughPath":
        self._require_chen("restrict")
        span = b - a
        if span <= 0 or span & (span - 1):
            raise ValueError("restriction span must be a power of two")
        sub = UniformGrid(span * self.grid.mesh, span.bit_length() - 1)
        inv_a = [lv[:, a : a + 1] for lv in self._inv_planes()]
        seg = [lv[:, a : b + 1] for lv in self._sig]
        return RoughPath(sub, self.params, _mul_levels(inv_a, seg, self.depth))


def _level_one(x: GridPath):
    """The prefixes S^(0), S^(1) of a path's lift and its increments, as
    component planes."""
    v = x.planes
    return [np.ones((1, x.grid.n)), v - v[:, :1]], np.diff(v, axis=1)


def _prefix_sums(incs: np.ndarray) -> np.ndarray:
    """0 then the running sums of the increments (n^k, cells)."""
    out = np.zeros((len(incs), incs.shape[1] + 1))
    np.cumsum(incs, axis=1, out=out[:, 1:])
    return out


def canonical_lift(x: GridPath, depth: int, params: BesovParams | None = None
                   ) -> RoughPath:
    """Left-point iterated-sum lift: partial products of (1 + delta x)."""
    params = params or BesovParams(0.45, 32.0, INF)
    _check_caps(x.dim, depth)
    sig, dx = _level_one(x)
    for k in range(2, depth + 1):
        sig.append(_prefix_sums(_outer(sig[k - 1][:, :-1], dx)))
    return RoughPath(x.grid, params, sig)


def geometric_lift(x: GridPath, depth: int, params: BesovParams | None = None
                   ) -> RoughPath:
    """Piecewise-linear (geodesic) lift: partial products of exp(delta x).

    The signature of the linear interpolation; the natural Stratonovich-type
    lift for smooth sampled paths.
    """
    params = params or BesovParams(0.45, 32.0, INF)
    n = x.dim
    _check_caps(n, depth)
    sig, dx = _level_one(x)
    cells = dx.shape[1]
    # dx tensor powers / j!
    powers = [np.ones((1, cells)), dx]
    for j in range(2, depth + 1):
        powers.append(_outer(powers[j - 1], dx) / j)
    for k in range(2, depth + 1):
        # S_{i+1} - S_i is level k of S_i (x) exp(dx_i), with S_i^(k) as 0
        head = [lv[:, :-1] for lv in sig] + [np.zeros((n**k, cells))]
        sig.append(_prefix_sums(_mul_level(head, powers, k)))
    return RoughPath(x.grid, params, sig)


def brownian_lift(
    n: int,
    grid: UniformGrid,
    seed,
    flavor: str = "ito",
    params: BesovParams | None = None,
) -> RoughPath:
    """Level-2 Brownian rough path: N(0, mesh I) increments, left-point
    iterated sums; the Stratonovich flavor adds the exact (1/2)(t-s) Id
    bracket to the second level."""
    params = params or BesovParams(0.45, 32.0, INF)
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed, "bm-lift")
    lift = canonical_lift(brownian_path(grid, rng, n), 2, params)
    if flavor == "ito":
        return lift
    if flavor != "stratonovich":
        raise ValueError(f"unknown flavor {flavor!r}")
    sig = list(lift._sig)
    eye = np.eye(n).reshape(-1)
    sig[2] = sig[2] + 0.5 * grid.times()[None, :] * eye[:, None]
    return RoughPath(grid, params, sig)


def fbm_covariance(H: float, grid: UniformGrid) -> np.ndarray:
    """Exact covariance of fBm at the positive grid nodes."""
    t = grid.times()[1:]
    cov = np.add.outer(t ** (2 * H), t ** (2 * H))
    lag = np.subtract.outer(t, t)  # built in place: one array beside cov
    cov -= np.power(np.abs(lag, out=lag), 2 * H, out=lag)
    return np.multiply(cov, 0.5, out=cov)


def _toeplitz_chol(gamma: np.ndarray) -> np.ndarray:
    """Transpose L^T of the lower Cholesky factor of the symmetric Toeplitz
    matrix with first column `gamma`, by the Schur algorithm: one hyperbolic
    rotation of the two displacement generators per column, O(n^2) time, in
    the mixed form that is stable for positive definite matrices (Bojanczyk,
    Brent, de Hoog & Sweet 1995).  Row k of the result is column k of L."""
    n = len(gamma)
    if not gamma[0] > 0:
        raise RegimeError("Toeplitz matrix is not positive definite")
    lt = np.zeros((n, n))
    lt[0] = gamma / math.sqrt(gamma[0])
    v = lt[0].copy()  # second generator; the first is the previous row, shifted
    v[0] = 0.0
    for k in range(1, n):
        u = lt[k - 1, k - 1:-1]
        rho = v[k] / u[0]
        if not abs(rho) < 1:
            raise RegimeError("Toeplitz matrix is not positive definite")
        c = math.sqrt((1 - rho) * (1 + rho))
        row = lt[k, k:]
        np.subtract(u, rho * v[k:], out=row)
        row /= c
        v[k:] *= c
        v[k:] -= rho * row
    return lt


@lru_cache(maxsize=8)
def _fbm_chol(H: float, level: int, horizon: float) -> np.ndarray:
    """Lower Cholesky factor of `fbm_covariance(H, UniformGrid(horizon,
    level))` in O(cells^2), cached per (H, grid).  The increments are
    stationary, so their covariance is Toeplitz in the fGn autocovariance
    gamma(k); summing its factor down the columns gives a lower-triangular
    factor with the same positive diagonal, which is the unique one."""
    if not 0 < H < 1:
        raise RegimeError(f"Hurst parameter must be in (0,1), got {H}")
    grid = UniformGrid(horizon, level)
    powers = np.abs(np.arange(-1.0, grid.n_cells + 1)) ** (2 * H)  # |k|^2H
    gamma = 0.5 * grid.mesh ** (2 * H) * (
        powers[2:] - 2 * powers[1:-1] + powers[:-2])
    lt = _toeplitz_chol(gamma)
    return np.cumsum(lt, axis=1, out=lt).T


def _fbm_rows(H: float, grid: UniformGrid, z: np.ndarray) -> np.ndarray:
    """fBm at the grid nodes, one path per row of the (B, cells) standard
    normal draws z: the (B, nodes) values, 0 at the first node."""
    lt = _fbm_chol(float(H), grid.level, float(grid.horizon)).T
    out = np.zeros((len(z), grid.n))
    np.matmul(z, lt, out=out[:, 1:])
    return out


def fbm_path(H: float, grid: UniformGrid, seed) -> GridPath:
    """Scalar fractional Brownian motion by exact-covariance factorization."""
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed, "fbm")
    z = rng.standard_normal((1, grid.n_cells))
    return GridPath._from_planes(grid, _fbm_rows(H, grid, z))


# ---------------------------------------------------------------------------
# operations


def dilate(X: RoughPath, lam: float) -> RoughPath:
    """delta_lambda: level k scaled by lambda^k."""
    X._require_chen("dilate")
    lam = float(lam)
    return RoughPath(X.grid, X.params,
                     [lam**k * lv for k, lv in enumerate(X._sig)])


def rough_besov_norm(X: RoughPath) -> float:
    """sum_k |X^(k)|_{B^{k a}_{p/k, q/k}}^{1/k} at (a, p, q) = X.params."""
    alpha, p, q = X.params.as_tuple
    total = 0.0
    for k in range(1, X.depth + 1):
        nk = two_param_norm(X.level(k), k * alpha, p / k, q / k)
        total += nk ** (1.0 / k)
    return total


def rough_metric(X: RoughPath, Y: RoughPath) -> float:
    """sum_k of the two-parameter metric between the level-k components, at
    X.params."""
    if X.depth != Y.depth or X.n != Y.n or X.grid != Y.grid:
        raise ValueError("rough paths not comparable")
    if Y is X:
        return 0.0  # every band of every level difference is exactly zero
    alpha, p, q = X.params.as_tuple
    total = 0.0
    for k in range(1, X.depth + 1):
        total += two_param_metric(X.level(k), Y.level(k), k * alpha, p / k, q / k)
    return total


def chen_residual(X: RoughPath) -> float:
    """Max componentwise residual of X_{st} (x) X_{tu} - X_{su} over triples.

    All triples when the grid has <= 64 cells; otherwise 10000 uniformly
    random triples (seed 20210), plus a deterministic sweep of the dyadic
    midpoint skeleton (i, i + 2^{k-1}, i + 2^k) so that a corrupted entry on
    an aligned pair is detected with certainty, not with the ~2% probability
    random triples alone would give.  The additive (max-abs) residual is
    reported so that an injected perturbation of size eps shows up as a
    residual of exactly eps; a non-finite difference makes it non-finite.
    """
    cells = X.grid.n_cells
    if cells <= 64:
        triples = combinations_with_replacement(range(cells + 1), 3)
        ii, uu, jj = (np.array(t) for t in zip(*triples))
    else:
        rng = rng_for(20210, "chen-triples")
        draws = rng.integers(0, cells + 1, size=(10000, 3))
        draws.sort(axis=1)
        skel = []
        for k in range(1, X.grid.level + 1):
            span = 1 << k
            starts = np.arange(0, cells - span + 1, span >> 1)
            skel.append(
                np.column_stack([starts, starts + (span >> 1), starts + span])
            )
        draws = np.vstack([draws] + skel)
        ii, uu, jj = draws[:, 0], draws[:, 1], draws[:, 2]
    worst = []
    for lo in range(0, len(ii), _CHEN_CHUNK):  # bounded temporaries
        i, u, j = (a[lo:lo + _CHEN_CHUNK] for a in (ii, uu, jj))
        iu, uj = ([lv.T for lv in X.pairs_levels(a, b)]
                  for a, b in ((i, u), (u, j)))
        prod = _mul_levels(iu, uj, X.depth)
        whole = X.pairs_levels(i, j)
        worst += [np.abs(prod[k] - whole[k].T).max()
                  for k in range(1, X.depth + 1)]
    # np.max, unlike max(), keeps a nan of any level and chunk
    return float(np.max(worst))


_CHEN_CHUNK = 2048  # triples per chunk of chen_residual
_INV_BYTES = 1 << 20  # levels per block of the inverse prefixes


def lyons_extend(X: RoughPath, target_depth: int) -> RoughPath:
    """Extend a level-M rough path to level `target_depth` by sewing the germ
    sum_k X^{(M-k+1)}_{0,s} (x) X^{(k)}_{s,t} one level at a time."""
    _check_caps(X.n, target_depth)
    X._require_chen("lyons_extend")
    cur = X
    while cur.depth < target_depth:
        m_lev = cur.depth
        if cur.params.endpoint(m_lev):
            raise RegimeError(
                f"extension from level {m_lev} needs alpha > 1/{m_lev + 1};"
                " the endpoint case carries a logarithmic loss and is not"
                " constructed here"
            )
        nodes = cur.grid.n
        from_zero = [lv.T for lv in cur.pairs_levels(
            np.zeros(nodes, dtype=np.intp), np.arange(nodes))]  # X^{(j)}_{0, s}
        ii = np.arange(nodes - 1)
        inc = [lv.T for lv in cur.pairs_levels(ii, ii + 1)]
        consec = 0.0
        for k in range(1, m_lev + 1):
            consec = consec + _outer(from_zero[m_lev - k + 1][:, :-1], inc[k])
        cur = RoughPath(cur.grid, cur.params,
                        list(cur._sig) + [_prefix_sums(consec)])
    return cur


# ---------------------------------------------------------------------------
# batched level-2 homogeneous distance (used by the stochastic experiments)


def homogeneous_distance_level2(dw: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """d(X_s, X_t) = |||X_{st}||| for a batch of level-2 increments.

    dw: (B, n) level-1 increments; xx: (B, n, n) level-2 entries.
    """
    return _plane_distance(dw.T, xx.reshape(len(dw), -1).T)


def _plane_distance(dw: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """`homogeneous_distance_level2` on component planes dw (n, B) and xx
    (n*n, B), row a*n + b holding X^{ab}; no `+ 0.0`: zeros reach only |.|."""
    mag1 = _plane_mags(dw)
    inv = (dw[:, None] * dw[None]).reshape(xx.shape) - xx
    gauge_fwd = np.maximum(mag1, np.sqrt(2.0 * _plane_mags(xx)))
    gauge_bwd = np.maximum(mag1, np.sqrt(2.0 * _plane_mags(inv)))
    return 0.5 * (gauge_fwd + gauge_bwd)

