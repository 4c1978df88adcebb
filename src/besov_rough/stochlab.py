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

import numpy as np
from scipy.special import gammaln
from scipy.stats import linregress

from ._rng import rng_for
from .errors import RegimeError
from .grid import GridPath, TwoParamField, UniformGrid, _frozen_germ, delta
from .norms import INF, besov_seminorm, two_param_norm
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
        v = values.copy()
        v.setflags(write=False)
        return cls(values=v, kind=kind)

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
    if isinstance(F, GridPath):
        F = delta(F)
    if F.grid != grid:
        raise ValueError("F must live on the martingale's embedded grid")
    dense = F.to_dense()  # (J+1, J+1, m), zero below the diagonal
    dg = g.increments
    weighted = dense[:, :-1, :] * dg[None, :, None]
    csum = np.concatenate(
        [np.zeros((grid.n, 1, F.dim)), np.cumsum(weighted, axis=1)], axis=1
    )
    # Pi[s, t] = sum_{j < t} F[s, j] dg_j
    return TwoParamField(grid, F.dim, germ=_frozen_germ(csum))


def square_function(g: DiscreteMartingale) -> TwoParamField:
    """S_{s,t} = (sum_{s < j <= t} dg_j^2)^{1/2}."""
    grid = g.grid()
    quad = np.concatenate([[0.0], np.cumsum(g.increments**2)])

    def germ(ii, jj):
        return np.sqrt(np.maximum(quad[jj] - quad[ii], 0.0))[:, None]

    return TwoParamField(grid, 1, germ=germ)


def gaussian_abs_moment(p: float, dim: int = 1) -> float:
    """E |Z|^p for a standard normal vector in R^dim."""
    return float(
        2.0 ** (p / 2)
        * math.exp(gammaln((p + dim) / 2.0) - gammaln(dim / 2.0))
    )


# ---------------------------------------------------------------------------
# Brownian / fBm Besov-rough statistics


def _ito_level2_bands(w: np.ndarray, k: int):
    """Level-1 and left-sum level-2 increments over all windows of k cells."""
    dim = w.shape[1]
    dw_cells = np.diff(w, axis=0)
    q = np.concatenate(
        [
            np.zeros((1, dim, dim)),
            np.cumsum(np.einsum("bi,bj->bij", w[:-1], dw_cells), axis=0),
        ],
        axis=0,
    )
    dw = w[k:] - w[:-k]
    xx = q[k:] - q[:-k] - np.einsum("bi,bj->bij", w[:-k], dw)
    return dw, xx


def _window_statistic(d_vals: np.ndarray, p: float, mesh: float, scale: float
                      ) -> float:
    # left Riemann sum over [0, 1 - 2^-n]: last window node excluded
    return float(scale * np.sum(d_vals[:-1] ** p) * mesh)


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
    ns = sorted(int(n) for n in np.atleast_1d(ns))
    if max(ns) > level:
        raise RegimeError(f"window exponent n={max(ns)} exceeds grid level {level}")
    grid = UniformGrid(1.0, level)
    mesh = grid.mesh
    table = {n: np.empty(samples) for n in ns}
    for s in range(samples):
        w = brownian_path(grid, rng_for(seed, "bm-ynp", s), dim).values
        for n in ns:
            k = 1 << (level - n)
            dw, xx = _ito_level2_bands(w, k)
            d_vals = homogeneous_distance_level2(dw, xx)
            table[n][s] = _window_statistic(d_vals, p, mesh, 2.0 ** (n * p / 2))
    oracle_samples = oracle_samples or max(2000, samples)
    per_n = {}
    for n in ns:
        k = 1 << (level - n)
        om, ose = _one_window_oracle(p, k, dim, seed, oracle_samples)
        vals = table[n]
        mass = 1.0 - 2.0**-n  # the window integral runs over [0, 1 - 2^-n]
        per_n[n] = {
            "mean": float(vals.mean()),
            "variance": float(vals.var(ddof=1)),
            "stderr": float(vals.std(ddof=1) / math.sqrt(samples)),
            "oracle_mean": om,
            "oracle_stderr": ose,
            "oracle_mean_window": mass * om,
            "oracle_stderr_window": mass * ose,
            "samples": samples,
        }
    slope, r2 = _variance_slope(per_n)
    return {"p": p, "level": level, "per_n": per_n,
            "variance_slope": slope, "variance_r2": r2}


def _one_window_oracle(p, k, dim, seed, draws):
    """Direct Monte Carlo of d(W(0), W(1))^p for a k-step discrete Ito lift.

    After dilation by 2^{n/2} the in-run window statistic has exactly this
    law, so the two estimates share their mean.
    """
    rng = rng_for(seed, "bm-ynp-oracle", k)
    incs = rng.standard_normal((draws, k, dim)) / math.sqrt(k)
    w = np.concatenate(
        [np.zeros((draws, 1, dim)), np.cumsum(incs, axis=1)], axis=1
    )
    dw = w[:, -1, :]
    xx = np.einsum("bki,bkj->bij", w[:, :-1, :], incs)
    d_vals = homogeneous_distance_level2(dw, xx) ** p
    return float(d_vals.mean()), float(d_vals.std(ddof=1) / math.sqrt(draws))


def _variance_slope(per_n):
    ns = sorted(per_n)
    if len(ns) < 2:
        return INF, 1.0
    v = np.array([per_n[n]["variance"] for n in ns])
    fit = linregress(np.asarray(ns, dtype=float), np.log2(v))
    return float(fit.slope), float(fit.rvalue**2)


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
    ns = sorted(int(n) for n in np.atleast_1d(ns))
    if max(ns) > level:
        raise RegimeError(f"window exponent n={max(ns)} exceeds grid level {level}")
    grid = UniformGrid(1.0, level)
    mesh = grid.mesh
    use_level2 = H <= 0.5
    table = {n: np.empty(samples) for n in ns}
    for s in range(samples):
        rng = rng_for(seed, "fbm-ynp", s)
        w = np.column_stack(
            [fbm_path(H, grid, rng).values[:, 0] for _ in range(dim)]
        )
        for n in ns:
            k = 1 << (level - n)
            if use_level2:
                dw, xx = _ito_level2_bands(w, k)
                d_vals = homogeneous_distance_level2(dw, xx)
            else:
                dw = w[k:] - w[:-k]
                d_vals = np.sqrt(np.einsum("bi,bi->b", dw, dw))
            table[n][s] = _window_statistic(d_vals, p, mesh, 2.0 ** (n * p * H))
    per_n = {}
    for n in ns:
        vals = table[n]
        per_n[n] = {
            "mean": float(vals.mean()),
            "variance": float(vals.var(ddof=1)),
            "stderr": float(vals.std(ddof=1) / math.sqrt(samples)),
            "samples": samples,
        }
        if not use_level2:
            per_n[n]["moment_oracle"] = gaussian_abs_moment(p, dim)
    slope, r2 = _variance_slope(per_n)
    return {"H": H, "p": p, "level": level, "per_n": per_n,
            "variance_slope": slope, "variance_r2": r2, "level2": use_level2}


# ---------------------------------------------------------------------------
# paraproduct BDG experiment


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
    for length in lengths:
        ratios = np.empty(samples)
        bdg_ratios = np.empty(samples)
        lhs_vals = np.empty(samples)
        f_vals = np.empty(samples)
        sg_vals = np.empty(samples)
        for s in range(samples):
            rng_f = rng_for(seed, f"pprod-f-{length}", s)
            rng_g = rng_for(seed, f"pprod-g-{length}", s)
            f_mart = DiscreteMartingale.generate(kind, length, rng_f)
            g_mart = (
                f_mart if coupled
                else DiscreteMartingale.generate(kind, length, rng_g)
            )
            f_path = f_mart.as_path()
            g_path = g_mart.as_path()
            A = paraproduct(f_path, g_mart)
            sq = square_function(g_mart)
            lhs = two_param_norm(A, gamma, p, q)
            f_norm = besov_seminorm(f_path, gamma1, p1, q1, form="integral")
            sg_norm = two_param_norm(sq, gamma0, p0, q0)
            rhs = f_norm * sg_norm
            ratios[s] = 0.0 if rhs == 0 else lhs / rhs
            g_norm = besov_seminorm(g_path, gamma0, p0, q0, form="integral")
            bdg_ratios[s] = 0.0 if sg_norm == 0 else g_norm / sg_norm
            lhs_vals[s], f_vals[s], sg_vals[s] = lhs, f_norm, sg_norm

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
