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
from .grid import GridPath, TwoParamField, UniformGrid, _frozen_germ
from .norms import (INF, _check_nontrivial, _integral_norm, _log_fit, _mags,
                    _outer, _power_denominator)
from .rough import fbm_path, homogeneous_distance_level2
from .signals import brownian_path

__all__ = [
    "DiscreteMartingale",
    "paraproduct",
    "square_function",
    "bm_besov_statistic",
    "fbm_besov_statistic",
    "pprod_bdg_experiment",
    "gaussian_abs_moment",
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
    if isinstance(F, GridPath):
        stack = _increment_stack(F.values.T)
    else:  # (m, n, n): one component per stacked field, zero below the diagonal
        stack = np.moveaxis(F.to_dense(), -1, 0)
    pi = _paraproduct_stack(stack, g.increments)
    return TwoParamField(grid, len(stack), germ=_frozen_germ(
        np.ascontiguousarray(np.moveaxis(pi, 0, -1))))


def _increment_stack(f: np.ndarray) -> np.ndarray:
    """F[..., s, j] = f_j - f_s on and above the diagonal, +0.0 below it:
    `delta(path).to_dense()` for a stack of scalar paths f (..., n)."""
    n = f.shape[-1]
    F = f[..., None, :] - f[..., :, None]
    np.copyto(F, 0.0, where=np.tri(n, n, -1, dtype=bool))  # in place: no copy
    return F


def _paraproduct_stack(F: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Pi[..., s, t] = sum_{j < t} F[..., s, j] dg[..., j] for a stack of
    (n, n) arrays F, zero below the diagonal, and increments dg (..., n-1).

    The sum is a cumulative sum along the last axis of a new C-ordered
    (..., n, n) array, so each stacked field gets the bits of its own call.
    """
    pi = np.empty(F.shape)
    pi[..., 0] = 0.0
    np.multiply(F[..., :-1], dg[..., None, :], out=pi[..., 1:])
    np.cumsum(pi[..., 1:], axis=-1, out=pi[..., 1:])
    return pi


def square_function(g: DiscreteMartingale) -> TwoParamField:
    """S_{s,t} = (sum_{s < j <= t} dg_j^2)^{1/2}."""
    return TwoParamField(g.grid(), 1, germ=_square_germ(g.increments))


def _square_germ(dg: np.ndarray):
    """Germ (ii, jj) -> S_{ii, jj} of shape (..., len, 1) of the square
    function of one martingale, or of a stack, with increments dg (..., J)."""
    sums = np.cumsum(dg**2, axis=-1)
    quad = np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)
    return lambda ii, jj: np.sqrt(
        np.maximum(quad[..., jj] - quad[..., ii], 0.0))[..., None]


def gaussian_abs_moment(p: float, dim: int = 1) -> float:
    """E |Z|^p for a standard normal vector in R^dim."""
    # scipy's gammaln, not math.lgamma: the two differ in the last bits
    from scipy.special import gammaln

    return float(
        2.0 ** (p / 2)
        * math.exp(gammaln((p + dim) / 2.0) - gammaln(dim / 2.0))
    )


# ---------------------------------------------------------------------------
# Brownian / fBm Besov-rough statistics


def _ito_level2_windows(w: np.ndarray, ks):
    """Level-1 and left-sum level-2 increments (dw, xx) over all windows of
    k cells, for each k in ks in turn; the level-2 running sum is built once
    for every window."""
    dim = w.shape[1]
    q = np.cumsum(_outer(w[:-1], np.diff(w, axis=0)), axis=0)
    q = np.concatenate([np.zeros((1, dim * dim)), q])
    for k in ks:
        dw = w[k:] - w[:-k]
        yield dw, (q[k:] - q[:-k] - _outer(w[:-k], dw)).reshape(-1, dim, dim)


def _window_table(paths, ns, level: int, p: float, hurst: float, level2: bool
                  ) -> dict:
    """Per-n window statistics 2^{npH} int_0^{1-2^-n} d(X_t, X_{t+2^-n})^p dt
    of each sample path w (nodes x dim) in `paths`, with d the homogeneous
    level-2 distance of the left-sum lift, or the level-1 distance."""
    mesh = UniformGrid(1.0, level).mesh
    ks = [1 << (level - n) for n in ns]
    table = {n: [] for n in ns}
    for w in paths:
        if level2:
            d_all = [homogeneous_distance_level2(dw, xx)
                     for dw, xx in _ito_level2_windows(w, ks)]
        else:
            d_all = [_mags(w[k:] - w[:-k]) for k in ks]
        for n, d_vals in zip(ns, d_all):
            # left Riemann sum over [0, 1 - 2^-n]: last window node excluded
            scale = 2.0 ** (n * p * hurst)
            table[n].append(float(scale * np.sum(d_vals[:-1] ** p) * mesh))
    return {n: np.array(vals) for n, vals in table.items()}


def _window_exponents(ns, level: int) -> list:
    ns = sorted(int(n) for n in np.atleast_1d(ns))
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
    paths = (brownian_path(grid, rng_for(seed, "bm-ynp", s), dim).values
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

    def paths():
        for s in range(samples):
            rng = rng_for(seed, "fbm-ynp", s)
            yield np.column_stack(
                [fbm_path(H, grid, rng).values[:, 0] for _ in range(dim)])

    table = _window_table(paths(), ns, level, p, H, use_level2)
    per_n = {n: _moments(table[n]) for n in ns}
    if not use_level2:
        for row in per_n.values():
            row["moment_oracle"] = gaussian_abs_moment(p, dim)
    slope, r2 = _variance_slope(per_n)
    return {"H": H, "p": p, "level": level, "per_n": per_n,
            "variance_slope": slope, "variance_r2": r2, "level2": use_level2}


# ---------------------------------------------------------------------------
# paraproduct BDG experiment


_STACK_BYTES = 64 << 20  # size of one stacked (S, n, n) paraproduct chunk


def _pprod_norms(grid, f, g, specs):
    """|Pi(delta f, g)|, |f|, |Sg| and |g| for a chunk of S sample paths f, g
    (S, n) on `grid`, one value per sample each: the integral norms with the
    (p, q, denominator) of `specs`, in that order."""
    n = f.shape[-1]
    dg = np.diff(g, axis=-1)
    pi = _paraproduct_stack(_increment_stack(f), dg)
    sg = _square_germ(dg)
    bands = (lambda k: np.diagonal(pi, k, 1, 2)[..., None],
             lambda k: (f[:, k:] - f[:, : n - k])[..., None],
             lambda k: sg(slice(0, n - k), slice(k, n)),
             lambda k: (g[:, k:] - g[:, : n - k])[..., None])
    # the norms read a field through `grid` and `band(k)`: here the
    # (S, n-k, 1) stack of the S fields' bands
    return [_integral_norm(SimpleNamespace(grid=grid, band=band), p, q, denom)
            for band, (p, q, denom) in zip(bands, specs)]


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
        chunk = max(1, _STACK_BYTES // (8 * (length + 1) ** 2))
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
            "ratio_p50": float(np.percentile(ratios, 50)),
            "ratio_p90": float(np.percentile(ratios, 90)),
            "ratio_p99": float(np.percentile(ratios, 99)),
            "ratio_mean": float(ratios.mean()),
            "bdg_p50": float(np.percentile(bdg_ratios, 50)),
            "bdg_p99": float(np.percentile(bdg_ratios, 99)),
            "lr_ratio": 0.0 if denom == 0 else lr(lhs_vals, r) / denom,
            "samples": samples,
        }
    return out
