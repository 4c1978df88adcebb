"""One- and two-parameter seminorms on sampled paths.

Conventions, fixed so that reported numbers are bit-stable:

* L^p sums use left-endpoint Riemann weights: ``mesh`` per node over
  [0, T-h], last node excluded (p = infinity takes the max over all nodes).
* The shift supremum in the moduli runs over every grid shift h = k*mesh
  up to tau, not only dyadic ones.
* d(tau)/tau integrals are discretized over the dyadic levels
  tau_n = T*2^{-n}, n = 1..level, with weight log(2) per level; the dyadic
  form of the one-parameter seminorm is the plain ell^q sum over the exact
  shifts 2^{-n}T with factor (2^n/T)^alpha and no log weight.
* Reductions are fixed-order, independent of any parallelism.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .grid import GridPath, TwoParamField

INF = math.inf
_LOG_MAX = math.log(sys.float_info.max)

__all__ = [
    "BesovParams",
    "EndpointModulus",
    "lp_norm",
    "lp_modulus",
    "besov_seminorm",
    "besov_level_table",
    "besov_metric",
    "two_param_norm",
    "two_param_metric",
    "delta2_norm",
    "holder_seminorm",
    "pvariation",
    "oscillation_variation",
    "campanato_ratio",
    "check_embedding",
    "interpolation_check",
    "band_lp_norms",
]


@dataclass(frozen=True)
class BesovParams:
    """(alpha, p, q) with regime flags for the Young / level-2 / level-N theory."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise RegimeError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.p > 0 or not self.q > 0:
            raise RegimeError(f"p, q must be positive (or inf), got {self.p}, {self.q}")
        _check_nontrivial(self.alpha, self.p)

    @property
    def as_tuple(self):
        return (self.alpha, self.p, self.q)

    @property
    def young_ok(self) -> bool:
        return self.levelN_ok(1)

    @property
    def level2_ok(self) -> bool:
        return self.levelN_ok(2)

    def endpoint(self, n_level: int) -> bool:
        """alpha at (or below) the level-N endpoint 1/(N+1), to within 1e-12:
        the one endpoint test of the Young, rough and extension code."""
        return self.alpha <= 1.0 / (n_level + 1) + 1e-12

    def levelN_ok(self, n_level: int) -> bool:
        """1/(N+1) <= alpha < 1 and alpha p > 1; at the endpoint also q <= N+1."""
        return (1.0 / (n_level + 1) <= self.alpha < 1 and self.p > 1 / self.alpha
                and (not self.endpoint(n_level) or self.q <= n_level + 1))


@dataclass(frozen=True)
class EndpointModulus:
    """Log-corrected critical modulus: omega_r(h) = h^exponent * ell_r(h).

    ell_r(h) = |log(min(h, 1/2))|^{1/r + 0.1}, ell_inf = 1.  `exponent`
    is max(1, 1/p2) in the sewing endpoint case.
    """

    r: float
    exponent: float = 1.0

    def __post_init__(self):
        if self.r <= 0:
            raise RegimeError("EndpointModulus needs r > 0")

    def ell(self, h):
        h = np.asarray(h, dtype=float)
        if self.r == INF:
            return np.ones_like(h)
        return np.abs(np.log(np.minimum(h, 0.5))) ** (1.0 / self.r + 0.1)

    def omega(self, h):
        h = np.asarray(h, dtype=float)
        return h**self.exponent * self.ell(h)

    def check_integrable(self, horizon: float = 1.0) -> float:
        """Numerical value of the dh/h integral of ell_r^{-r} on [2^-40, T]."""
        if self.r == INF:
            return INF
        hs = horizon * 2.0 ** (-np.arange(1, 41, dtype=float))
        return float(np.sum(self.ell(hs) ** (-self.r)) * math.log(2.0))


# ---------------------------------------------------------------------------
# shared kernels

_COLUMN_ROWS = 1024  # from here on a multiply per output column is faster


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer products u[:, a] v[:, b] + 0.0 of (B, p) and (B, q) factors in
    column a*q + b of (B, p*q); one row broadcasts."""
    rows, p, q = max(len(u), len(v)), u.shape[1], v.shape[1]
    return _lane_sum(u[:, :, None, None], v[:, None, :, None]).reshape(
        rows, p * q)


def _lane_sum(x, y) -> np.ndarray:
    """sum_t x[..., t] y[..., t] for x and y broadcasting to (B, ..., T), in
    the library's lane order (`_add_lanes`).  Below `_COLUMN_ROWS` rows
    each term is one multiply over the whole output, from there on one
    multiply per output column; both run the same adds, so a row has the
    same bits at every batch size and in every memory layout."""
    terms = x.shape[-1]
    if max(len(x), len(y)) < _COLUMN_ROWS:
        return _add_lanes(x[..., t] * y[..., t] for t in range(terms))
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape[:-1])
    for i in itertools.product(*map(range, out.shape[1:])):
        col = (slice(None), *i)
        _add_lanes((x[(*col, t)] * y[(*col, t)] for t in range(terms)),
                   out=out[col])
    return out


def _add_lanes(products, out=None) -> np.ndarray:
    """The products of a contraction added in lane order: the even-indexed
    ones into lane 0 and the odd-indexed ones into lane 1, each in index
    order, then lane 0 + lane 1, then + 0.0 (so a -0.0 sum comes out +0.0).
    The products are fresh arrays, taken one at a time and summed in place."""
    lanes = []
    for t, product in enumerate(products):
        if t < 2:
            lanes.append(product)
        else:
            lanes[t % 2] += product
    acc = np.add(*lanes, out=lanes[0]) if len(lanes) > 1 else lanes[0]
    return np.add(acc, 0.0, out=acc if out is None else out)


def _mags(diff: np.ndarray) -> np.ndarray:
    """Euclidean magnitudes of a (..., k, m) increment block, shape (..., k)."""
    return _plane_mags(diff.T).T


def _plane_mags(planes: np.ndarray) -> np.ndarray:
    """Magnitudes of k component planes (k, ...): the squares added in the
    lane order of `_add_lanes`, with no + 0.0 (a square is never -0.0); one
    component is its absolute value."""
    if len(planes) == 1:
        return np.abs(planes[0])
    sq = planes * planes
    for t in range(2, len(sq)):
        sq[t % 2] += sq[t]
    return np.sqrt(sq[0] + sq[1])


def _band_lp(mag: np.ndarray, mesh: float, p: float):
    """L^p over [0, T-h] of each band, the last axis of `mag`: left-endpoint
    weights, last band node excluded (p = inf: the max over every node)."""
    return _lp_sum(mag if p == INF else mag[..., :-1], p, mesh)


def _lp_sum(x: np.ndarray, p: float, weight: float):
    """(weight * sum x^p)^(1/p) over the last axis of x, its max for
    p = inf, 0 over an empty axis: a float for a 1-D x, else one value per
    row of a stack.

    Two rules make a stack of rows give the bits of one call per row.  The
    sum runs over the last axis of a C-ordered array: its row sums equal the
    1-D sums, while over an F-ordered array (a transpose, or what some fancy
    indexing returns) they differ in the last bit.  The 1/p root is a numpy
    scalar power per entry: numpy's array power differs from it in the last
    bit for a few percent of entries.

    A row whose power sum overflows or underflows, which only large p or
    extreme magnitudes meet, is recomputed from x scaled by its max; when
    the max shows that an overflow is possible, the sum runs without the
    overflow warning.  Every other row keeps the bits of the plain sum.
    """
    if x.size == 0:
        out = np.zeros(x.shape[:-1])
    elif p == INF:
        out = x.max(axis=-1)
    else:
        big = x.max()
        if big > 1.0 and p * math.log(big) > _LOG_MAX - math.log(
                x.shape[-1] * max(weight, 1.0)):
            with np.errstate(over="ignore"):
                out = _lp_root(x, p, weight)
            out = _rescale_lost_rows(x, p, weight, out)
        else:
            out = _lp_root(x, p, weight)
            if np.count_nonzero(out) < out.size:
                out = _rescale_lost_rows(x, p, weight, out)
    return out if out.ndim else float(out)


def _lp_root(x: np.ndarray, p: float, weight: float):
    """The plain (weight * sum x^p)^(1/p) of `_lp_sum`, finite p."""
    out = weight * np.add.reduce(np.ascontiguousarray(x**p), axis=-1)
    e = 1.0 / p
    if out.ndim:
        return np.array([v**e for v in out.flat]).reshape(out.shape)
    return out**e


def _rescale_lost_rows(x: np.ndarray, p: float, weight: float, out):
    """`out` with each row whose power sum overflowed to inf or underflowed
    to 0 recomputed as m * (weight * sum (x/m)^p)^(1/p), m the row max."""
    top = x.max(axis=-1)
    lost = (top > 0) & (top < INF) & ((out == 0) | (out == INF))
    if not lost.any():
        return out
    m = np.where(lost, top, 1.0)
    return np.where(lost, m * _lp_root(x / m[..., None], p, weight), out)


def band_lp_norms(obj, p: float, max_shift: int) -> np.ndarray:
    """Per-shift L^p increment norms s_k, k = 1..max_shift, of the bands
    `obj.band(k)`: the increments f_{i+k} - f_i of a GridPath, or the entries
    A[i, i+k] of a TwoParamField.  A band stack of shape (..., n-k, m) gives
    a (..., max_shift) array, one row per stacked field.
    """
    mesh = obj.grid.mesh
    return np.transpose([_band_lp(_mags(obj.band(k)), mesh, p)
                         for k in range(1, max_shift + 1)])


def _dyadic_band_norms(obj, p: float) -> np.ndarray:
    """L^p norms of the bands at the dyadic shifts 2^{level-n}, n = 1..level
    (|f(. + 2^-n T) - f|_{L^p} for a path)."""
    grid = obj.grid
    return np.array([
        _band_lp(_mags(obj.band(1 << (grid.level - n))), grid.mesh, p)
        for n in range(1, grid.level + 1)
    ])


def lp_norm(f: GridPath, p: float) -> float:
    """L^p norm of the path itself (same Riemann-weight convention)."""
    return _band_lp(_mags(f.values), f.grid.mesh, p)


def lp_modulus(f: GridPath, p: float, tau: float) -> float:
    """omega_p(f, tau): sup over grid shifts h = k*mesh <= tau of |delta_h f|_{L^p}."""
    if not tau > 0:
        raise RegimeError(f"tau must be positive, got {tau}")
    k_max = min(int(tau / f.grid.mesh + 1e-9), f.grid.n_cells)
    if k_max < 1:
        return 0.0
    return float(band_lp_norms(f, p, k_max).max())


def _q_sum(ratios: np.ndarray, q: float, log_weight: bool):
    """ell^q sum of the ratios along the last axis, weighted by log 2 when
    `log_weight`; one value per row of a stack (see `_lp_sum`)."""
    w = math.log(2.0) if log_weight else 1.0
    return _lp_sum(np.asarray(ratios, dtype=float), q, w)


def _ratios_from_norms(s: np.ndarray, grid, denom) -> np.ndarray:
    """Per-level ratios Omega(tau_n)/denom(tau_n) for n = 1..level, along the
    last axis of the per-shift norms s (one row per stacked field).

    Omega is the running sup of the per-shift norms s, so it is
    nondecreasing in tau by construction.
    """
    running = np.maximum.accumulate(s, axis=-1)
    ns = range(1, grid.level + 1)
    shifts = [(1 << (grid.level - n)) - 1 for n in ns]
    denoms = np.array([denom(grid.horizon * 2.0 ** (-n)) for n in ns],
                      dtype=float)
    return running[..., shifts] / denoms


def _dyadic_ratio_profile(obj, p, denom):
    """Per-level ratios Omega_p(., tau_n)/denom(tau_n) for n = 1..level."""
    level = obj.grid.level
    s = band_lp_norms(obj, p, 1 << (level - 1)) if level >= 1 else np.zeros(0)
    return _ratios_from_norms(s, obj.grid, denom)


def _integral_norm(obj, p: float, q: float, denom):
    """Log-weighted ell^q sum over tau_n of Omega_p(obj, tau_n)/denom(tau_n),
    behind `two_param_norm` and the integral `besov_seminorm`.  For a stack
    of S fields (obj.band(k) of shape (S, n-k, m)) it gives, bit for bit,
    the S values of S unstacked calls."""
    return _q_sum(_dyadic_ratio_profile(obj, p, denom), q, log_weight=True)


def _power_denominator(gamma: float, modulus=None):
    """tau -> tau^gamma, or `modulus` when given (endpoint norms)."""
    if modulus is not None:
        return modulus
    if not gamma > 0:
        raise RegimeError(f"gamma must be positive, got {gamma}")
    return lambda tau: tau**gamma


def _log_fit(x, y):
    """(slope, r^2) of the least-squares line through (x, y), the log-log
    rate fits.  The arithmetic is `scipy.stats.linregress`'s, so both come
    out bit for bit the same; r^2 is nan when y is constant."""
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    if sxx == 0.0 or syy == 0.0:
        r = np.float64(np.nan if sxy == 0 else 0.0)
    else:
        r = min(max(sxy / np.sqrt(sxx * syy), -1.0), 1.0)
    return float(sxy / sxx), float(r**2)


# ---------------------------------------------------------------------------
# one-parameter seminorms


def _check_nontrivial(alpha, p):
    if alpha > max(1.0, 1.0 / p):
        raise RegimeError(f"alpha={alpha} > max(1, 1/p={p}): trivial space")


def besov_seminorm(
    f: GridPath, alpha: float, p: float, q: float, form: str = "dyadic"
) -> float:
    """[f]_{B^alpha_pq} in dyadic or integral form.

    dyadic:    ( sum_n ((2^n/T)^alpha * |f - f(.+2^-n T)|_{L^p})^q )^{1/q}
    integral:  dtau/tau discretization of (omega_p(f,tau)/tau^alpha)^q over
               dyadic tau levels, weight log 2 per level.
    """
    _check_nontrivial(alpha, p)
    if form == "dyadic":
        return _dyadic_sum(f, alpha, p, q)
    if form == "integral":
        return _integral_norm(f, p, q, lambda tau: tau**alpha)
    raise ValueError(f"unknown form {form!r}")


def _dyadic_sum(obj, alpha: float, p: float, q: float) -> float:
    """Plain ell^q sum over n of (2^n/T)^alpha * |band at shift 2^-n T|_{L^p}:
    the dyadic seminorm of a path, and the Picard gauge of a remainder field
    at 2 alpha."""
    horizon = obj.grid.horizon
    ratios = [(2.0**n / horizon) ** alpha * s
              for n, s in enumerate(_dyadic_band_norms(obj, p), start=1)]
    return _q_sum(np.asarray(ratios), q, log_weight=False)


def besov_level_table(f: GridPath, alpha: float, p: float, q: float):
    """Per-level table [(n, h, lp_increment_norm)] behind the dyadic form."""
    horizon = f.grid.horizon
    return [{"n": n, "h": horizon * 2.0**-n, "lp_increment_norm": float(s)}
            for n, s in enumerate(_dyadic_band_norms(f, p), start=1)]


def besov_metric(f: GridPath, g: GridPath, alpha: float, p: float, q: float) -> float:
    """Complete-metric distance on B^alpha_pq, split by the (p, q) cases."""
    diff = f - g
    ratios = _dyadic_ratio_profile(diff, p, lambda tau: tau**alpha)
    return _metric_sum(ratios, p, q, base=lp_norm(diff, p))


def _metric_sum(ratios: np.ndarray, p: float, q: float, base: float = 0.0
                ) -> float:
    """The (p, q) case split of the complete metrics: base^min(1, p) plus the
    log-weighted ell^q sum of the ratios raised to min(1, p, q).

    Each case keeps its own arithmetic (the sum of ratios^q is not rooted
    and re-raised), so the reported values stay bit-stable.
    """
    if p >= 1 and q >= 1:
        return base + _q_sum(ratios, q, log_weight=True)
    head = base if p >= 1 else base**p
    if q == INF:  # here p < 1: the ell^inf sum is the max, to the power p
        return head + _q_sum(ratios, q, log_weight=True) ** p
    integral = float(math.log(2.0) * np.sum(ratios**q))
    return head + (integral if q <= p else integral ** (p / q))


# ---------------------------------------------------------------------------
# two-parameter seminorms


def two_param_norm(
    A: TwoParamField,
    gamma: float,
    p: float,
    q: float,
    modulus=None,
) -> float:
    """|A|_{B^gamma_pq}: dtau/tau discretization with Omega_p(A, tau).

    `modulus`, when given, replaces tau^gamma as the denominator (endpoint
    norms).
    """
    return _integral_norm(A, p, q, _power_denominator(gamma, modulus))


def two_param_metric(
    A: TwoParamField, B: TwoParamField, gamma: float, p: float, q: float
) -> float:
    """Complete-metric distance on the two-parameter space, split by the
    (p, q) cases as in `besov_metric` with no L^p term."""
    denom = _power_denominator(gamma)
    return _metric_sum(_dyadic_ratio_profile(A - B, p, denom), p, q)


def delta2_norm(A: TwoParamField, gamma: float, p: float, q: float) -> float:
    """|delta^2 A| in the barred two-parameter norm.

    The inner sup over theta is discretized on {j/16}; this is a lower bound
    on the continuum sup.
    """
    grid = A.grid
    denom = _power_denominator(gamma)
    thetas = np.arange(16, dtype=float) / 16
    max_shift = 1 << (grid.level - 1) if grid.level >= 1 else 0
    s = np.zeros(max_shift)
    for k in range(1, max_shift + 1):
        offs = np.unique(np.rint(thetas[1:] * k).astype(int))
        offs = offs[(offs > 0) & (offs < k)]
        best = 0.0
        for u in offs:
            best = max(best, _band_lp(_mags(A.delta2_bands(u, k)), grid.mesh, p))
        s[k - 1] = best
    return _q_sum(_ratios_from_norms(s, grid, denom), q, log_weight=True)


def holder_seminorm(obj, beta: float) -> float:
    """sup over grid pairs of |increment| / (t-s)^beta.

    Accepts a GridPath (increments of f) or a TwoParamField (entries of A).
    """
    grid = obj.grid
    best = 0.0
    for k, sup in enumerate(band_lp_norms(obj, INF, grid.n - 1), start=1):
        best = max(best, sup / (k * grid.mesh) ** beta)
    return float(best)


# ---------------------------------------------------------------------------
# variation functionals


def _variation_dp(sizes, n: int, p: float):
    """(value, prev) of the sup over partitions of the nodes 0..n-1 of
    (sum size^p)^{1/p}, by dynamic programming: sizes(j) holds the sizes of
    the blocks [i, j], i < j, and prev[j] the first best point before j.
    A 0 or inf for a non-constant path is rerun on sizes / m, m the largest
    size, and multiplied back by m (the rescue of `_lp_sum`)."""
    def run(m):
        best = np.zeros(n)
        prev = np.zeros(n, dtype=int)
        for j in range(1, n):
            cand = best[:j] + (sizes(j) / m) ** p
            i = int(np.argmax(cand))  # argmax returns the first maximizer
            best[j] = cand[i]
            prev[j] = i
        return m * best[-1] ** (1.0 / p), prev

    with np.errstate(over="ignore"):
        value, prev = run(1.0)
    if value == 0.0 or value == INF:
        m = max((float(sizes(j).max()) for j in range(1, n)), default=0.0)
        if 0.0 < m < INF:
            value, prev = run(m)
    return float(value), prev


def pvariation(f: GridPath, p: float, return_partition: bool = False):
    """Exact sup over grid partitions of (sum |delta f|^p)^{1/p}, by dynamic
    programming; ties break toward the earlier partition point."""
    if p < 1:
        raise RegimeError(f"pvariation needs p >= 1, got {p}")
    v = f.values
    n = len(v)
    value, prev = _variation_dp(lambda j: _mags(v[j] - v[:j]), n, p)
    if not return_partition:
        return value
    points = [n - 1]
    while points[-1] > 0:
        points.append(int(prev[points[-1]]))
    return value, points[::-1]


def oscillation_variation(f: GridPath, p: float) -> float:
    """Oscillation variant: block cost inf_c |f - c|_{sup;[s,t]} = (max-min)/2."""
    if p < 1:
        raise RegimeError(f"oscillation_variation needs p >= 1, got {p}")
    if f.dim != 1:
        raise ValueError("oscillation_variation is defined for scalar paths")
    v = f.values[:, 0]

    def sizes(j):
        seg = v[j::-1]
        mx = np.maximum.accumulate(seg)[:0:-1]
        mn = np.minimum.accumulate(seg)[:0:-1]
        return (mx - mn) / 2.0

    return _variation_dp(sizes, len(v), p)[0]


# ---------------------------------------------------------------------------
# Campanato ratio and inequality reports


def campanato_ratio(f: GridPath, beta: float) -> float:
    """Discretized sup over centers and dyadic radii of
    r^{-beta} (2r)^{-2} * double integral of |f_s - f_t| over the window.

    Windows wider than 256 nodes are subsampled with a stride, so the
    reported value is a lower bound on the full double-sum version.
    """
    grid = f.grid
    v = f.values
    n = grid.n
    best = 0.0
    center_stride = max(1, (n - 1) // 64)
    for kr in range(1, grid.level):
        w = 1 << (grid.level - kr)  # radius in nodes; r = w*mesh
        r = w * grid.mesh
        for c in range(w, n - w, center_stride):
            lo, hi = c - w, c + w
            stride = max(1, (hi - lo) // 256)
            sub = v[lo:hi:stride]
            weight = (stride * grid.mesh) ** 2
            diff = sub[:, None, :] - sub[None, :, :]
            dbl = float(_mags(diff).sum()) * weight
            val = dbl / (2 * r) ** 2 / r**beta
            best = max(best, val)
    return best


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def check_embedding(
    obj, alpha: float, p: float, q: float, target: str = "holder"
) -> dict:
    """Compute both sides of a claimed embedding and report the ratio.

    No constant is asserted; callers judge stability across resolutions.
    For paths: target 'holder' compares the (alpha - 1/p)-Hoelder seminorm to
    the Besov seminorm; target 'variation' compares the critical-Besov dyadic
    seminorm at (1/p, p, inf) to the p-variation.  For fields: 'holder'
    compares the (gamma - 1/p) field Hoelder norm to the two-parameter norm.
    """
    if isinstance(obj, TwoParamField):
        lhs = holder_seminorm(obj, alpha - 1.0 / p)
        rhs = two_param_norm(obj, alpha, p, q)
        return {"lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs), "target": "holder"}
    if target == "holder":
        if alpha <= 1.0 / p:
            raise RegimeError("Hoelder embedding needs alpha > 1/p")
        lhs = holder_seminorm(obj, alpha - 1.0 / p)
        rhs = besov_seminorm(obj, alpha, p, q, form="integral")
    elif target == "variation":
        lhs = besov_seminorm(obj, 1.0 / p, p, INF, form="dyadic")
        rhs = pvariation(obj, p)
    else:
        raise ValueError(f"unknown target {target!r}")
    return {"lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs), "target": target}


def interpolation_check(
    A: TwoParamField,
    alpha: float,
    gamma: float,
    p: float,
    r: float,
    q: float,
    delta: float,
) -> dict:
    """Loss-of-regularity / gain-of-integrability interpolation report:

        |A|_{B^alpha_{r,q}}  vs  T^e * |A|_{C^delta}^{1-p/r} |A|_{B^gamma_{p,q}}^{p/r}

    with e = delta*(1 - p/r) + gamma*p/r - alpha.  Returns both sides and the
    implied constant (their ratio).
    """
    if not (0 < alpha < gamma and 0 < p < r):
        raise RegimeError("interpolation needs 0 < alpha < gamma and p < r")
    exponent = delta * (1 - p / r) + gamma * p / r - alpha
    if exponent <= 0:
        raise RegimeError("interpolation exponent must be positive")
    lhs = two_param_norm(A, alpha, r, q)
    holder = holder_seminorm(A, delta)
    coarse = two_param_norm(A, gamma, p, q)
    rhs = A.grid.horizon**exponent * holder ** (1 - p / r) * coarse ** (p / r)
    return {"lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs), "T_exponent": exponent}
