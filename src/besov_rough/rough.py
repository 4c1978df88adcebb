"""Truncated tensor algebra and level-N Besov rough paths.

Lifts are stored through their node-wise signature prefixes S_t (partial
products of per-cell group increments), so every level field is available as
an exact lazy closure X_{st} = S_s^{-1} (x) S_t: Chen's relation holds by
construction up to float roundoff, and band access costs O(1) per pair.

Tensor components are dense, row-major multi-index, flattened to (n^k,) per
level; base dimension and depth are capped at 4.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._rng import rng_for
from .errors import RegimeError
from .grid import GridPath, TwoParamField, UniformGrid, _indices
from .norms import (
    INF,
    BesovParams,
    _log_fit,
    _mags,
    _outer,
    _plane_mags,
    holder_seminorm,
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
    "rough_embedding_report",
    "rough_interpolation_report",
    "campanato_scaling",
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
# batched level arithmetic: levels[k] has shape (B, n^k), k = 0..N


def _identity_levels(batch: int, n: int, depth: int):
    return [np.full((batch, n**k), float(k == 0)) for k in range(depth + 1)]


def _mul_level(x, y, k: int):
    """Level k of x (x) y: the terms x[a] (x) y[k-a] added for a = 0..k in
    that order, from 0; a one-row batch broadcasts.  A factor whose scalar
    level is exactly 1 enters its term unmultiplied (0 + 1*v is v + 0.0)."""
    rows = max(len(x[0]), len(y[0]))
    for a in range(k + 1):
        u, v = x[a], y[k - a]
        if a == 0 and (u == 1.0).all():
            term = v
        elif a == k and (v == 1.0).all():
            term = u
        else:
            term = _outer(u, v)
        if a == 0:
            acc = np.add(term, 0.0, out=np.empty((rows, term.shape[1])))
        else:
            acc += term
    return acc


def _mul_levels(x, y, depth: int):
    return [_mul_level(x, y, k) for k in range(depth + 1)]


def _series(a, n: int, depth: int, divisor):
    """sum of a^j / divisor(j) over j = 0..depth, added in that order, for
    batched levels a with zero scalar level."""
    out = power = _identity_levels(len(a[0]), n, depth)
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
    batch = x[0].shape[0]
    best = np.zeros(batch)
    for k in range(1, depth + 1):
        mag = _mags(x[k])
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
        return [lv[None, :] for lv in self.levels]

    def level(self, k: int) -> np.ndarray:
        return self.levels[k].reshape((self.n,) * k) if k else self.levels[0][0]


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    if x.n != y.n or x.depth != y.depth:
        raise ValueError("algebra mismatch")
    out = _mul_levels(x._batched(), y._batched(), x.depth)
    return TensorElement(x.n, [lv[0] for lv in out])


def tensor_inv(x: TensorElement) -> TensorElement:
    out = _inv_levels(x._batched(), x.n, x.depth)
    return TensorElement(x.n, [lv[0] for lv in out])


def tensor_exp(v, depth: int) -> TensorElement:
    """exp of a level-1 vector in the step-`depth` nilpotent algebra."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    a = [np.zeros((1, 1)), v[None, :]] + [np.zeros((1, n**k))
                                          for k in range(2, depth + 1)]
    out = _exp_levels(a, n, depth)
    return TensorElement(n, [lv[0] for lv in out])


def homogeneous_norm(x: TensorElement) -> float:
    """Dilation-homogeneous gauge (symmetrized with the inverse)."""
    return float(_hom_levels(x._batched(), x.n, x.depth)[0])


def dilate_element(x: TensorElement, lam: float) -> TensorElement:
    return TensorElement(x.n, [lam**k * lv for k, lv in enumerate(x.levels)])


# ---------------------------------------------------------------------------
# rough paths


class RoughPath:
    """Level-N rough path over R^n with Besov parameters attached.

    Either signature-prefix backed (exact Chen) or explicit-field backed
    (used e.g. for fault-injection); both expose the same interface.
    """

    def __init__(self, grid: UniformGrid, n: int, depth: int, params: BesovParams,
                 sig=None, fields=None, base=None):
        _check_caps(n, depth)
        self.grid = grid
        self.n = n
        self.depth = depth
        self.params = params
        self._sig = sig            # list (nodes, n^k), k = 0..depth
        self._siginv = None
        self._fields = fields      # list of TwoParamField, level k = 1..depth
        self._base = base          # GridPath of the level-1 path from 0

    # -- construction --------------------------------------------------------
    @classmethod
    def from_signature(cls, grid, params, sig) -> "RoughPath":
        n = sig[1].shape[1]
        depth = len(sig) - 1
        base = GridPath(grid, sig[1] - sig[1][0])
        return cls(grid, n, depth, params, sig=sig, base=base)

    @classmethod
    def from_fields(cls, grid, params, fields) -> "RoughPath":
        """Explicit-field rough path; the base path is X^(1)_{0,t}."""
        n = fields[0].dim
        first = fields[0].pairs(np.zeros(grid.n - 1, dtype=np.intp),
                                np.arange(1, grid.n))
        base = GridPath(grid, np.vstack([np.zeros((1, n)), first]))
        return cls(grid, n, len(fields), params, fields=fields, base=base)

    # -- internals ------------------------------------------------------------
    def _inv_prefix(self):
        if self._siginv is None:
            self._siginv = _inv_levels(self._sig, self.n, self.depth)
        return self._siginv

    def pairs_levels(self, ii, jj):
        """Group increments X_{ii -> jj} as batched levels (len, n^k)."""
        ii = np.asarray(ii, dtype=np.intp)
        jj = np.asarray(jj, dtype=np.intp)
        if self._sig is not None:
            inv = self._inv_prefix()
            x = [lv[ii] for lv in inv]
            y = [lv[jj] for lv in self._sig]
            return _mul_levels(x, y, self.depth)
        out = [np.ones((len(ii), 1))]
        for k in range(1, self.depth + 1):
            out.append(self._fields[k - 1].pairs(ii, jj))
        return out

    def level(self, k: int) -> TwoParamField:
        """Level-k component as a TwoParamField with n^k entries."""
        if not 1 <= k <= self.depth:
            raise IndexError(f"level {k} outside 1..{self.depth}")
        if self._fields is not None:
            return self._fields[k - 1]
        sig = self._sig[: k + 1]

        def germ(ii, jj):
            inv = self._inv_prefix()[: k + 1]
            return _mul_level([lv[ii] for lv in inv], [lv[jj] for lv in sig], k)

        return TwoParamField(self.grid, self.n**k, germ=germ)

    def base_path(self) -> GridPath:
        return self._base

    def restrict(self, a: int, b: int) -> "RoughPath":
        span = b - a
        if span <= 0 or span & (span - 1):
            raise ValueError("restriction span must be a power of two")
        sub = UniformGrid(span * self.grid.mesh, span.bit_length() - 1)
        if self._sig is not None:
            inv_a = [lv[a : a + 1] for lv in self._inv_prefix()]
            seg = [lv[a : b + 1] for lv in self._sig]
            sig = _mul_levels(inv_a, seg, self.depth)
            return RoughPath.from_signature(sub, self.params, sig)
        fields = [f.restrict(a, b) for f in self._fields]
        return RoughPath.from_fields(sub, self.params, fields)


def canonical_lift(x: GridPath, depth: int, params: BesovParams | None = None
                   ) -> RoughPath:
    """Left-point iterated-sum lift: partial products of (1 + delta x)."""
    params = params or BesovParams(0.45, 32.0, INF)
    n = x.dim
    _check_caps(n, depth)
    v = x.values
    dx = np.diff(v, axis=0)
    nodes = x.grid.n
    sig = [np.ones((nodes, 1)), v - v[0]]
    for k in range(2, depth + 1):
        incs = _outer(sig[k - 1][:-1], dx)
        sig.append(np.vstack([np.zeros((1, n**k)), np.cumsum(incs, axis=0)]))
    return RoughPath.from_signature(x.grid, params, sig)


def geometric_lift(x: GridPath, depth: int, params: BesovParams | None = None
                   ) -> RoughPath:
    """Piecewise-linear (geodesic) lift: partial products of exp(delta x).

    The signature of the linear interpolation; the natural Stratonovich-type
    lift for smooth sampled paths.
    """
    params = params or BesovParams(0.45, 32.0, INF)
    n = x.dim
    _check_caps(n, depth)
    v = x.values
    dx = np.diff(v, axis=0)
    nodes = x.grid.n
    # dx tensor powers / j!
    powers = [np.ones((nodes - 1, 1)), dx.copy()]
    for j in range(2, depth + 1):
        powers.append(_outer(powers[j - 1], dx) / j)
    sig = [np.ones((nodes, 1)), v - v[0]]
    for k in range(2, depth + 1):
        # S_{i+1} - S_i is level k of S_i (x) exp(dx_i), with S_i^(k) as 0
        head = [lv[:-1] for lv in sig] + [np.zeros((nodes - 1, n**k))]
        incs = _mul_level(head, powers, k)
        sig.append(np.vstack([np.zeros((1, n**k)), np.cumsum(incs, axis=0)]))
    return RoughPath.from_signature(x.grid, params, sig)


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
    sig = [lv.copy() for lv in lift._sig]
    eye = np.eye(n).reshape(-1)
    sig[2] = sig[2] + 0.5 * grid.times()[:, None] * eye[None, :]
    return RoughPath.from_signature(grid, params, sig)


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
    return GridPath(grid, _fbm_rows(H, grid, z).T)


# ---------------------------------------------------------------------------
# operations


def dilate(X: RoughPath, lam: float) -> RoughPath:
    """delta_lambda: level k scaled by lambda^k."""
    lam = float(lam)
    if X._sig is not None:
        sig = [lam**k * lv for k, lv in enumerate(X._sig)]
        sig[0] = X._sig[0].copy()
        return RoughPath.from_signature(X.grid, X.params, sig)
    fields = [lam ** (k + 1) * f for k, f in enumerate(X._fields)]
    return RoughPath.from_fields(X.grid, X.params, fields)


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
    residual of exactly eps.
    """
    cells = X.grid.n_cells
    if cells <= 64:
        idx = []
        for i in range(cells + 1):
            for u in range(i, cells + 1):
                for j in range(u, cells + 1):
                    idx.append((i, u, j))
        ii, uu, jj = (np.array(t) for t in zip(*idx))
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
    left = X.pairs_levels(ii, uu)
    right = X.pairs_levels(uu, jj)
    prod = _mul_levels(left, right, X.depth)
    whole = X.pairs_levels(ii, jj)
    worst = 0.0
    for k in range(1, X.depth + 1):
        worst = max(worst, float(np.abs(prod[k] - whole[k]).max()))
    return worst


def lyons_extend(X: RoughPath, target_depth: int) -> RoughPath:
    """Extend a level-M rough path to level `target_depth` by sewing the germ
    sum_k X^{(M-k+1)}_{0,s} (x) X^{(k)}_{s,t} one level at a time."""
    _check_caps(X.n, target_depth)
    cur = X
    while cur.depth < target_depth:
        m_lev = cur.depth
        if cur.params.endpoint(m_lev):
            raise RegimeError(
                f"extension from level {m_lev} needs alpha > 1/{m_lev + 1};"
                " the endpoint case carries a logarithmic loss and is not"
                " constructed here"
            )
        n = cur.n
        nodes = cur.grid.n
        from_zero = cur.pairs_levels(np.zeros(nodes, dtype=np.intp),
                                     np.arange(nodes))  # X^{(j)}_{0, s}

        def germ_A(ii, jj, cur=cur, from_zero=from_zero, m_lev=m_lev):
            ii, jj = _indices(ii), _indices(jj)
            inc = cur.pairs_levels(ii, jj)
            acc = 0.0
            for k in range(1, m_lev + 1):
                acc = acc + _outer(from_zero[m_lev - k + 1][ii], inc[k])
            return acc

        consec = germ_A(slice(0, nodes - 1), slice(1, nodes))
        ia = np.vstack([np.zeros((1, n ** (m_lev + 1))),
                        np.cumsum(consec, axis=0)])

        if cur._sig is not None:
            sig = list(cur._sig) + [ia]
            cur = RoughPath.from_signature(cur.grid, cur.params, sig)
        else:
            def germ_new(ii, jj, ia=ia, germ_A=germ_A):
                return ia[jj] - ia[ii] - germ_A(ii, jj)

            fields = [cur.level(k) for k in range(1, m_lev + 1)]
            fields.append(TwoParamField(cur.grid, n ** (m_lev + 1), germ=germ_new))
            cur = RoughPath.from_fields(cur.grid, cur.params, fields)
    return cur


# ---------------------------------------------------------------------------
# reports


def rough_embedding_report(X: RoughPath) -> dict:
    """Per-level Hoelder norms against the rough Besov norm (ratio report)."""
    alpha, p, _ = X.params.as_tuple
    beta = alpha - 1.0 / p
    total = rough_besov_norm(X)
    levels = []
    for k in range(1, X.depth + 1):
        lhs = holder_seminorm(X.level(k), k * beta) ** (1.0 / k)
        levels.append(
            {"level": k, "lhs": lhs, "rhs": total,
             "ratio": 0.0 if total == 0 else lhs / total}
        )
    return {"levels": levels, "rough_norm": total}


def rough_interpolation_report(X: RoughPath, j: int, k: int) -> dict:
    """|X^(k)|_{B^{j a}_{p/j, q/j}} against T^{(k-j)(a-1/p)} * norm^k."""
    if not 1 <= j < k <= X.depth:
        raise ValueError("need 1 <= j < k <= depth")
    alpha, p, q = X.params.as_tuple
    lhs = two_param_norm(X.level(k), j * alpha, p / j, q / j)
    total = rough_besov_norm(X)
    t_pow = X.grid.horizon ** ((k - j) * (alpha - 1.0 / p))
    rhs = t_pow * total**k
    return {"lhs": lhs, "rhs": rhs, "ratio": 0.0 if rhs == 0 else lhs / rhs}


def campanato_scaling(X: RoughPath, k: int) -> dict:
    """log-log slope of the window-averaged |mean X^{(k)}_{st}| against the
    window width 2^e cells, e = 2..level-2; the Campanato-type bound
    predicts slope >= k(alpha - 1/p) up to discretization slack."""
    alpha, p, _ = X.params.as_tuple
    beta = alpha - 1.0 / p
    field = X.level(k)
    grid = X.grid
    widths, values = [], []
    for e in range(2, grid.level - 1):
        w = 1 << e
        vals = []
        for a in range(0, grid.n - w, w):
            ii, jj = np.triu_indices(w + 1, k=1)
            block = field.pairs(a + ii, a + jj)
            vals.append(np.linalg.norm(block.mean(axis=0)))
        widths.append(w * grid.mesh)
        values.append(float(np.mean(vals)))
    good = [(w, v) for w, v in zip(widths, values) if v > 0]
    if len(good) < 2:
        return {"slope": INF, "expected": beta * k, "widths": widths,
                "values": values}
    slope, r2 = _log_fit(np.log([w for w, _ in good]),
                         np.log([v for _, v in good]))
    return {
        "slope": slope,
        "expected": beta * k,
        "r2": r2,
        "widths": widths,
        "values": values,
    }


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

