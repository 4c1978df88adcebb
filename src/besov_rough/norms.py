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
    "besov_seminorm",
    "besov_level_table",
    "besov_metric",
    "two_param_norm",
    "two_param_metric",
    "delta2_norm",
    "pvariation",
    "oscillation_variation",
    "band_lp_norms",
]


@dataclass(frozen=True)
class BesovParams:
    """(alpha, p, q) with the level-N regime checks; Young is level 1."""

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


# ---------------------------------------------------------------------------
# shared kernels


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer products u[a] v[b] + 0.0 of the component planes u (p, B) and
    v (q, B) in plane a*q + b of (p*q, B); a one-column factor broadcasts."""
    out = u[:, None] * v[None]
    out += 0.0
    return out.reshape(-1, out.shape[-1])


def _add_lanes(products) -> np.ndarray:
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
    return np.add(acc, 0.0, out=acc)


def _plane_mags(planes: np.ndarray) -> np.ndarray:
    """Magnitudes of k component planes (k, ...): the square root of
    `_plane_squares`; one component is its absolute value."""
    if len(planes) == 1:
        return np.abs(planes[0])
    return np.sqrt(_plane_squares(planes))


def _plane_squares(planes: np.ndarray) -> np.ndarray:
    """Squared magnitudes of k >= 2 component planes (k, ...): the squares
    added in the lane order of `_add_lanes`, with no + 0.0 (a square is
    never -0.0)."""
    sq = planes * planes
    for t in range(2, len(sq)):
        sq[t % 2] += sq[t]
    return sq[0] + sq[1]


def _band_norm(planes: np.ndarray, mesh: float, p: float):
    """`_band_lp` of the magnitudes of a band's planes (m, ..., k), stacks
    (m, S, k) of S fields included.

    At p = inf with m >= 2 the max is taken over the squared magnitudes and
    rooted once: sqrt is monotone and correctly rounded, so the root of the
    max has the bits of the max of the roots."""
    if p != INF or len(planes) == 1:
        mag = _plane_mags(planes)
        del planes  # a band made for this call is freed before the L^p sum
        return _band_lp(mag, mesh, p)
    root = np.sqrt(_lp_sum(_plane_squares(planes), INF, mesh))
    return root if root.ndim else float(root)


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
    `obj.band(k)`, read as their planes `obj.band(k).T`: the increments
    f_{i+k} - f_i of a GridPath, or the entries A[i, i+k] of a TwoParamField.
    A stack of S fields, bands (n-k, S, m) of planes (m, S, n-k), gives an
    (S, max_shift) array, one row per stacked field.
    """
    mesh = obj.grid.mesh
    return np.transpose([_band_norm(obj.band(k).T, mesh, p)
                         for k in range(1, max_shift + 1)])


def _dyadic_band_norms(obj, p: float) -> np.ndarray:
    """L^p norms of the bands at the dyadic shifts 2^{level-n}, n = 1..level
    (|f(. + 2^-n T) - f|_{L^p} for a path)."""
    grid = obj.grid
    return np.array([
        _band_norm(obj.band(1 << (grid.level - n)).T, grid.mesh, p)
        for n in range(1, grid.level + 1)
    ])


def lp_norm(f: GridPath, p: float) -> float:
    """L^p norm of the path itself (same Riemann-weight convention)."""
    return _band_norm(f.planes, f.grid.mesh, p)


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
    of S fields (obj.band(k) of shape (n-k, S, m)) it gives, bit for bit,
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
            best = max(best, _band_norm(A.delta2_bands(u, k).T, grid.mesh, p))
        s[k - 1] = best
    return _q_sum(_ratios_from_norms(s, grid, denom), q, log_weight=True)


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
    v, n = f.planes, f.grid.n
    value, prev = _variation_dp(
        lambda j: _plane_mags(v[:, j, None] - v[:, :j]), n, p)
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
    v = f.planes[0]

    def sizes(j):
        seg = v[j::-1]
        mx = np.maximum.accumulate(seg)[:0:-1]
        mn = np.minimum.accumulate(seg)[:0:-1]
        return (mx - mn) / 2.0

    return _variation_dp(sizes, len(v), p)[0]
