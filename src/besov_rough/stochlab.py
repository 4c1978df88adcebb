"""Monte Carlo verification experiments: the Besov-rough statistic for
Brownian/fractional Brownian lifts and the discrete martingale paraproduct
BDG ratios.

Every estimator derives its randomness from (root seed, stream name, sample
index), so aggregates are bit-reproducible and independent of scheduling.
Inequality experiments report ratio distributions and cross-scale stability
rather than pass/fail against unknown absolute constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._rng import rng_for
from .errors import RegimeError
from .grid import GridPath, TwoParamField, UniformGrid, _frozen_germ, delta
from .norms import (INF, _check_nontrivial, _integral_norm, _log_fit,
                    _plane_mags, _power_denominator)
from .rough import (_fbm_rows, _plane_distance, _prefix_sums,
                    homogeneous_distance_level2)
from .signals import brownian_path

__all__ = [
    "DiscreteMartingale",
    "paraproduct",
    "square_function",
    "bm_besov_statistic",
    "fbm_besov_statistic",
    "pprod_bdg_experiment",
]

_KINDS = ("gaussian", "random-sign", "stopped-random-walk")


@dataclass(frozen=True)
class DiscreteMartingale:
    """g_0..g_J with conditionally mean-zero increments (by construction)."""

    values: np.ndarray
    kind: str

    @property
    def length(self) -> int:
        return len(self.values) - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    @classmethod
    def generate(cls, kind: str, length: int, rng) -> "DiscreteMartingale":
        scale = 1.0 / math.sqrt(length)
        if kind == "gaussian":
            dg = rng.standard_normal(length) * scale
        elif kind == "random-sign":
            dg = (2.0 * rng.integers(0, 2, size=length) - 1.0) * scale
        elif kind == "stopped-random-walk":
            steps = (2.0 * rng.integers(0, 2, size=length) - 1.0) * scale
            g = np.cumsum(steps)
            hit = np.nonzero(np.abs(g) >= 1.0)[0]
            if len(hit):
                steps[hit[0] + 1 :] = 0.0
            dg = steps
        else:
            raise ValueError(f"unknown martingale kind {kind!r}; use {_KINDS}")
        values = np.concatenate([[0.0], np.cumsum(dg)])
        values.setflags(write=False)
        return cls(values=values, kind=kind)

    def grid(self) -> UniformGrid:
        level = self.length.bit_length() - 1
        if self.length != 1 << level:
            raise ValueError("martingale length must be a power of two to embed")
        return UniformGrid(1.0, level)

    def as_path(self) -> GridPath:
        return GridPath(self.grid(), self.values)


def paraproduct(F, g: DiscreteMartingale) -> TwoParamField:
    """Pi_{s,t} = sum_{s <= j < t} F_{s,j} (g_{j+1} - g_j), all index pairs.

    F is a TwoParamField on the embedded grid, or a GridPath whose increment
    field delta(f) is used.
    """
    grid = g.grid()
    if F.grid != grid:
        raise ValueError("F must live on the martingale's embedded grid")
    field = delta(F) if isinstance(F, GridPath) else F
    # Pi[:, s, t] = sum_{j < t} F[:, s, j] dg_j: a cumulative sum along the
    # last axis, in place, of F's (m, n, n) planes, zero below the diagonal
    pi = field._dense_planes()
    np.multiply(pi[..., :-1], g.increments, out=pi[..., 1:])
    pi[..., 0] = 0.0
    np.cumsum(pi[..., 1:], axis=-1, out=pi[..., 1:])
    return TwoParamField(grid, field.dim, germ=_frozen_germ(pi))


def square_function(g: DiscreteMartingale) -> TwoParamField:
    """S_{s,t} = (sum_{s < j <= t} dg_j^2)^{1/2}."""
    return TwoParamField(g.grid(), 1, germ=_square_germ(g.increments))


def _square_germ(dg: np.ndarray):
    """Germ (ii, jj) -> S_{ii, jj}, one plane (1, ..., len), of the square
    function of one martingale, or of a stack, with increments dg (..., J)."""
    sums = np.cumsum(dg**2, axis=-1)
    quad = np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)
    return lambda ii, jj: np.sqrt(
        np.maximum(quad[..., jj] - quad[..., ii], 0.0))[None]


# ---------------------------------------------------------------------------
# Brownian / fBm Besov-rough statistics


def _window_table(paths, ns, level: int, p: float, hurst: float, level2: bool
                  ) -> dict:
    """Per-n window statistics 2^{npH} int_0^{1-2^-n} d(X_t, X_{t+2^-n})^p dt
    of each path, as component planes w (dim, nodes), with d the level-2
    distance of the left-sum lift (one running-sum row per pair) or level 1."""
    mesh = UniformGrid(1.0, level).mesh
    ks = [1 << (level - n) for n in ns]
    table = {n: [] for n in ns}
    for w in paths:
        if level2:
            q = _prefix_sums((w[:, None, :-1] * np.diff(w)).reshape(
                len(w) ** 2, -1))
        for n, k in zip(ns, ks):
            dw = w[:, k:] - w[:, :-k]
            if level2:
                xx = q[:, k:] - q[:, :-k]
                xx -= (w[:, None, :-k] * dw).reshape(len(q), -1)
                d_vals = _plane_distance(dw, xx)
            else:
                d_vals = _plane_mags(dw)
            # left Riemann sum over [0, 1 - 2^-n]: last window node excluded
            scale = 2.0 ** (n * p * hurst)
            table[n].append(float(scale * np.sum(d_vals[:-1] ** p) * mesh))
    return {n: np.array(vals) for n, vals in table.items()}


def _window_exponents(ns, level: int) -> list:
    ns = sorted(int(n) for n in np.atleast_1d(ns))
    if len(set(ns)) < len(ns):
        raise RegimeError(f"window exponents must be distinct, got {ns}")
    if max(ns) > level:
        raise RegimeError(f"window exponent n={max(ns)} exceeds grid level {level}")
    return ns


def _moments(vals: np.ndarray) -> dict:
    return {"mean": float(vals.mean()), "variance": float(vals.var(ddof=1)),
            "stderr": float(vals.std(ddof=1) / math.sqrt(len(vals))),
            "samples": len(vals)}


def bm_besov_statistic(
    p: float,
    ns,
    level: int,
    samples: int,
    seed: int,
    dim: int = 2,
    oracle_samples: int | None = None,
) -> dict:
    """Scaled window statistic of the level-2 Ito Brownian lift.

    Per sample, Y_np^p = 2^{np/2} * int_0^{1-2^-n} d(W_t, W_{t+2^-n})^p dt with
    d the homogeneous group distance.  The per-n means are compared against an
    independent oracle that simulates the exact law of one dilated window
    (a discrete k-step lift over [0,1], k = 2^{level-n}).
    """
    ns = _window_exponents(ns, level)
    grid = UniformGrid(1.0, level)
    paths = (brownian_path(grid, rng_for(seed, "bm-ynp", s), dim).planes
             for s in range(samples))
    table = _window_table(paths, ns, level, p, 0.5, level2=True)
    oracle_samples = oracle_samples or max(2000, samples)
    per_n = {}
    for n in ns:
        k = 1 << (level - n)
        om, ose = _one_window_oracle(p, k, dim, seed, oracle_samples)
        mass = 1.0 - 2.0**-n  # the window integral runs over [0, 1 - 2^-n]
        per_n[n] = {**_moments(table[n]), "oracle_mean": om, "oracle_stderr": ose,
                    "oracle_mean_window": mass * om,
                    "oracle_stderr_window": mass * ose}
    slope, r2 = _variance_slope(per_n)
    return {"p": p, "level": level, "per_n": per_n,
            "variance_slope": slope, "variance_r2": r2}


_ORACLE_ROWS = 500  # windows drawn at once by the bm-ynp oracle


def _one_window_oracle(p, k, dim, seed, draws):
    """Direct Monte Carlo of d(W(0), W(1))^p for a k-step discrete Ito lift.

    After dilation by 2^{n/2} the in-run window statistic has exactly this
    law, so the two estimates share their mean.  The windows are drawn from
    one generator in chunks of `_ORACLE_ROWS`, which gives the numbers of a
    single draw while memory stays at O(draws) floats.
    """
    rng = rng_for(seed, "bm-ynp-oracle", k)
    d_vals = np.empty(draws)
    for r0 in range(0, draws, _ORACLE_ROWS):
        rows = min(_ORACLE_ROWS, draws - r0)
        incs = rng.standard_normal((rows, k, dim)) / math.sqrt(k)
        w = np.concatenate(
            [np.zeros((rows, 1, dim)), np.cumsum(incs, axis=1)], axis=1
        )
        xx = np.einsum("bki,bkj->bij", w[:, :-1, :], incs)
        d_vals[r0:r0 + rows] = homogeneous_distance_level2(w[:, -1, :], xx) ** p
    return float(d_vals.mean()), float(d_vals.std(ddof=1) / math.sqrt(draws))


def _variance_slope(per_n):
    ns = sorted(per_n)
    if len(ns) < 2:
        return INF, 1.0
    v = np.array([per_n[n]["variance"] for n in ns])
    return _log_fit(np.asarray(ns, dtype=float), np.log2(v))


_FBM_CHUNK = 64  # samples whose draws share one product with the fBm factor


def _fbm_planes(H, grid, samples, seed, dim):
    """Each sample's dim fBm paths as one (dim, nodes) plane.  Sample s draws
    its dim paths in turn from its own generator; the draws of up to
    `_FBM_CHUNK` samples go through one matrix product with the factor."""
    for s0 in range(0, samples, _FBM_CHUNK):
        idx = range(s0, min(s0 + _FBM_CHUNK, samples))
        z = np.concatenate([rng_for(seed, "fbm-ynp", s).standard_normal(
            (dim, grid.n_cells)) for s in idx])
        yield from _fbm_rows(H, grid, z).reshape(len(idx), dim, grid.n)


def fbm_besov_statistic(
    H: float,
    p: float,
    ns,
    level: int,
    samples: int,
    seed: int,
    dim: int = 2,
) -> dict:
    """fBm analog with scaling 2^{npH}: level-1 windows for H in (1/2, 1),
    level-2 (left-sum lift of the sampled path) for H in (1/3, 1/2]."""
    if H <= 1.0 / 3.0 or H >= 1.0:
        raise RegimeError(f"supported Hurst range is (1/3, 1), got {H}")
    ns = _window_exponents(ns, level)
    grid = UniformGrid(1.0, level)
    use_level2 = H <= 0.5

    table = _window_table(_fbm_planes(H, grid, samples, seed, dim), ns, level,
                          p, H, use_level2)
    per_n = {n: _moments(table[n]) for n in ns}
    slope, r2 = _variance_slope(per_n)
    return {"H": H, "p": p, "level": level, "per_n": per_n,
            "variance_slope": slope, "variance_r2": r2, "level2": use_level2}


# ---------------------------------------------------------------------------
# paraproduct BDG experiment


# A chunk of S samples holds about ten (S, n) float arrays at its peak (the
# paths, their increments, the square-function sums, the paraproduct band
# and the norms' temporaries); `_STACK_BYTES` bounds them together.
_STACK_BYTES = 64 << 20


def _pprod_norms(grid, f, g, specs):
    """|Pi(delta f, g)|, |f|, |Sg| and |g| for a chunk of S sample paths f, g
    (S, n) on `grid`, one value per sample each: the integral norms with the
    (p, q, denominator) of `specs`, in that order."""
    n = f.shape[-1]
    dg = np.diff(g, axis=-1)
    sg = _square_germ(dg)
    planes = (_paraproduct_planes(f, dg),
              lambda k: (f[:, k:] - f[:, : n - k])[None],
              lambda k: sg(slice(0, n - k), slice(k, n)),
              lambda k: (g[:, k:] - g[:, : n - k])[None])
    # the norms read a field through `grid` and the planes `band(k).T`:
    # here the (1, S, n-k) planes of the S fields' band k
    return [_integral_norm(SimpleNamespace(grid=grid, band=lambda k, pl=pl:
                                           pl(k).T), p, q, denom)
            for pl, (p, q, denom) in zip(planes, specs)]


def _paraproduct_planes(f, dg):
    """k -> Pi[:, s, s+k] of Pi(delta f, g) as (1, S, n-k) planes, for
    sample rows f (S, n) and increments dg (S, n-1); the bands must be
    read in order k = 1, 2, ..., and each is valid until the next read.

    Band k is band k-1 plus (f_{s+k-1} - f_s) dg_{s+k-1}, added in place
    into one (S, n-1) buffer: the adds of `paraproduct`'s cumulative
    sum, so every entry has its bits up to the sign of a zero."""
    n = f.shape[-1]
    pi = np.zeros(dg.shape)
    read = 0

    def band(k):
        nonlocal read
        if k != read + 1:
            raise ValueError(
                f"paraproduct bands are read in order: band {read + 1} "
                f"is next, got {k}")
        read = k
        pi_k = pi[:, : n - k]
        pi_k += (f[:, k - 1 : n - 1] - f[:, : n - k]) * dg[:, k - 1 :]
        return pi_k[None]

    return band


def _check_holder_triple(name, triple):
    a, b, c = triple
    lhs = 1.0 / a + 1.0 / b
    rhs = 1.0 / c
    if abs(lhs - rhs) > 1e-9:
        raise RegimeError(
            f"Hoelder triple mismatch for {name}: 1/{a} + 1/{b} != 1/{c}"
        )


def pprod_bdg_experiment(
    gamma0: float,
    gamma1: float,
    p_tuple,
    q_tuple,
    r_tuple,
    lengths,
    samples: int,
    seed: int,
    kind: str = "gaussian",
    coupled: bool = False,
) -> dict:
    """Ratio experiment for the anisotropic paraproduct estimate.

    Per sample, draw martingales f, g, form A = Pi(delta f, g), and compare
    |A|_{B^{g0+g1}_{p,q}} against |f|_{B^{g1}_{p1,q1}} * |Sg|_{B^{g0}_{p0,q0}}.
    Reports the per-length ratio distribution, the L^r aggregate ratio, and
    the F = 1 specialization (plain Besov-scale BDG).
    """
    p0, p1, p = p_tuple
    q0, q1, q = q_tuple
    r0, r1, r = r_tuple
    for name, triple in (("p", p_tuple), ("q", q_tuple), ("r", r_tuple)):
        _check_holder_triple(name, triple)
    if gamma1 <= 1.0 / p1:
        raise RegimeError(f"need gamma1 > 1/p1, got {gamma1} <= 1/{p1}")
    gamma = gamma0 + gamma1
    out = {"lengths": {}, "config": {
        "gamma0": gamma0, "gamma1": gamma1, "kind": kind, "coupled": coupled,
    }}
    # the regime checks of the four norms, in the order they are taken
    lhs_denom = _power_denominator(gamma)
    _check_nontrivial(gamma1, p1)
    g_denom = _power_denominator(gamma0)
    _check_nontrivial(gamma0, p0)
    specs = ((p, q, lhs_denom), (p1, q1, lambda tau: tau**gamma1),
             (p0, q0, g_denom), (p0, q0, g_denom))
    for length in lengths:
        lhs_vals, f_vals, sg_vals, g_vals = table = np.empty((4, samples))
        chunk = max(1, _STACK_BYTES // (10 * 8 * (length + 1)))
        for s0 in range(0, samples, chunk):
            idx = range(s0, min(samples, s0 + chunk))
            f_marts = [DiscreteMartingale.generate(
                kind, length, rng_for(seed, f"pprod-f-{length}", s)) for s in idx]
            g_marts = f_marts if coupled else [DiscreteMartingale.generate(
                kind, length, rng_for(seed, f"pprod-g-{length}", s)) for s in idx]
            values = _pprod_norms(f_marts[0].grid(),
                                  np.stack([m.values for m in f_marts]),
                                  np.stack([m.values for m in g_marts]), specs)
            for row, vals in zip(table, values):
                row[s0 : s0 + len(idx)] = vals
        rhs = f_vals * sg_vals
        ratios = np.divide(lhs_vals, rhs, out=np.zeros(samples), where=rhs != 0)
        bdg_ratios = np.divide(g_vals, sg_vals, out=np.zeros(samples),
                               where=sg_vals != 0)

        def lr(values, rr):
            return float(np.mean(values**rr) ** (1.0 / rr)) if rr != INF else float(
                values.max()
            )

        denom = lr(f_vals, r1) * lr(sg_vals, r0)
        out["lengths"][int(length)] = {
            "ratio_p50": _percentile(ratios, 50),
            "ratio_p90": _percentile(ratios, 90),
            "ratio_p99": _percentile(ratios, 99),
            "ratio_mean": float(ratios.mean()),
            "bdg_p50": _percentile(bdg_ratios, 50),
            "bdg_p99": _percentile(bdg_ratios, 99),
            "lr_ratio": 0.0 if denom == 0 else lr(lhs_vals, r) / denom,
            "samples": samples,
        }
    return out


def _percentile(x: np.ndarray, q: int) -> float:
    """`np.percentile(x, q)` of a 1-D float array, bit for bit, without the
    import of numpy.ma that np.percentile pays through np.unique: numpy's
    'linear' method (virtual index (n - 1) q/100 and numpy's lerp with its
    t >= 0.5 branch) on a copy of x partitioned at numpy's kth, so that
    ties of -0.0 and +0.0 resolve as in numpy; a nan in x is the result."""
    n = len(x)
    v = (n - 1) * (q / 100)
    i, j = (-1, -1) if v >= n - 1 else (math.floor(v), math.floor(v) + 1)
    part = np.partition(x, sorted({0, -1, i, j}))
    if np.isnan(part[-1]):
        return float(part[-1])
    t = v - i
    diff = part[j] - part[i]
    return float(part[j] - diff * (1 - t) if t >= 0.5 else part[i] + diff * t)
