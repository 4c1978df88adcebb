"""Level-2 controlled rough paths: rough integration, composition, the RDE
solver, Davie residuals, and the Ito-Lyons stability probe.

Index conventions: a controlled pair (Y, Y') has Y values of shape
(nodes, *vs) and Y' of shape (nodes, *vs, n), the trailing axis contracting
against driver increments.  Second-level entries XX[k, j] carry the inner
(earlier) index first, matching the left-point iterated sums of the lifts, so
the Davie expansion contracts as sum_{j,k} (Df f)[a,j,k] XX[k,j].
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import RegimeError
from .grid import GridPath, TwoParamField
from .norms import (
    INF,
    BesovParams,
    EndpointModulus,
    besov_metric,
    besov_seminorm,
    holder_seminorm,
    two_param_metric,
    two_param_norm,
    _dyadic_band_norms,
    _dyadic_sum,
    _lane_sum,
    _log_fit,
)
from .rough import RoughPath, rough_metric
from .young import (
    VectorField,
    field_distance_proxy,
    _adaptive_picard,
    _probe_cloud,
    _require_field,
)

__all__ = [
    "ControlledPath",
    "controlled_norm",
    "controlled_distance",
    "remainder_bounds_check",
    "rough_integral",
    "compose_controlled",
    "rde_solve",
    "RdeResult",
    "davie_residual",
    "rde_stability_probe",
]


class ControlledPath:
    """Pair (Y, Y') with the derived remainder field R = dY - Y' dX."""

    def __init__(self, X: RoughPath, Y: np.ndarray, Yp: np.ndarray):
        Y = np.asarray(Y, dtype=float)
        Yp = np.asarray(Yp, dtype=float)
        nodes = X.grid.n
        if Y.shape[0] != nodes or Yp.shape[0] != nodes:
            raise ValueError("Y and Y' must be sampled on the driver grid")
        if Yp.shape != Y.shape + (X.n,):
            raise ValueError(
                f"Y' must have shape {Y.shape + (X.n,)}, got {Yp.shape}"
            )
        self.X = X
        self.Y = Y
        self.Yp = Yp
        self._remainder = None

    @property
    def value_shape(self):
        return self.Y.shape[1:]

    def y_path(self) -> GridPath:
        return GridPath(self.X.grid, self.Y.reshape(self.X.grid.n, -1))

    def yp_path(self) -> GridPath:
        return GridPath(self.X.grid, self.Yp.reshape(self.X.grid.n, -1))

    @property
    def remainder(self) -> TwoParamField:
        """Lazy cache of R[i][j] = dY - Y'_i dX[i][j] (recomputable exactly)."""
        if self._remainder is None:
            X, n = self.X, self.X.grid.n
            self._remainder = _expansion_remainder(
                X.grid, X.base_path().values, self.Y.reshape(n, -1),
                self.Yp.reshape(n, -1, X.n))
        return self._remainder


def _expansion_lead(a, dx, b=None, xx=None) -> np.ndarray:
    """The controlled increment a dX + b XX, row by row: a is (B, m, n) and
    dx (B, n); b, when given, is (B, m, n, n) and contracts with the
    level-2 increments xx (B, n, n) as sum_{j,k} b[., j, k] XX[k, j], the
    terms in the order j*n + k.  Both sums add in `norms._lane_sum` order."""
    lead = _lane_sum(a, dx[:, None])
    if b is None:
        return lead
    m, n = b.shape[1:3]
    return lead + _lane_sum(b.reshape(len(b), m, n * n),
                            np.swapaxes(xx, 1, 2).reshape(len(xx), 1, n * n))


def _expansion_remainder(grid, base, v, a, b=None, xx_field=None
                         ) -> TwoParamField:
    """The Davie-type remainder v_t - v_s - a_s dX_st - b_s XX_st as a lazy
    field on `grid`, with dX_st = base_t - base_s; v is (nodes, m), a is
    (nodes, m, n) and b, when given, is (nodes, m, n, n), contracted with
    the level-2 field `xx_field` as in `_expansion_lead`."""
    n = a.shape[2]

    def germ(ii, jj):
        terms = (a[ii], base[jj] - base[ii])
        if b is not None:
            terms += (b[ii], xx_field._values(ii, jj).reshape(-1, n, n))
        return v[jj] - v[ii] - _expansion_lead(*terms)

    return TwoParamField(grid, v.shape[1], germ=germ)


def controlled_norm(cp: ControlledPath) -> float:
    """[Y']_{B^a_pq} + |R|_{B^{2a}_{p/2,q/2}} at (a, p, q) = cp.X.params."""
    alpha, p, q = cp.X.params.as_tuple
    part1 = besov_seminorm(cp.yp_path(), alpha, p, q, form="integral")
    part2 = two_param_norm(cp.remainder, 2 * alpha, p / 2, q / 2)
    return part1 + part2


def controlled_distance(cp1: ControlledPath, cp2: ControlledPath) -> float:
    """Metric distance of the Gubinelli derivatives plus the remainders, at
    cp1.X.params."""
    if cp1.value_shape != cp2.value_shape or cp1.X.grid != cp2.X.grid:
        raise ValueError("controlled paths not comparable")
    alpha, p, q = cp1.X.params.as_tuple
    d1 = besov_metric(cp1.yp_path(), cp2.yp_path(), alpha, p, q)
    d2 = two_param_metric(cp1.remainder, cp2.remainder, 2 * alpha, p / 2, q / 2)
    return d1 + d2


def remainder_bounds_check(cp: ControlledPath, beta: float | None = None) -> dict:
    """Both sides of the Hoelder remainder bound and the path-norm control.

    beta must lie in (alpha + 1/p, 2*alpha]; ratios are reported for fitting.
    """
    alpha, p, q = cp.X.params.as_tuple
    inv_p = 1.0 / p
    if beta is None:
        beta = 2 * alpha
    if not alpha + inv_p < beta <= 2 * alpha + 1e-12:
        raise RegimeError(f"beta must be in (alpha+1/p, 2 alpha], got {beta}")
    x_norm = besov_seminorm(cp.X.base_path(), alpha, p, q, form="integral")
    yp_norm = besov_seminorm(cp.yp_path(), alpha, p, q, form="integral")
    r_beta = two_param_norm(cp.remainder, beta, p / 2, q / 2)
    holder_lhs = holder_seminorm(cp.remainder, beta - 2 * inv_p)
    holder_rhs = r_beta + yp_norm * x_norm
    y_norm = besov_seminorm(cp.y_path(), alpha, p, q, form="integral")
    horizon = cp.X.grid.horizon
    t_pow = max(horizon ** (beta - alpha - inv_p), horizon ** (alpha - inv_p))
    y_rhs = float(np.linalg.norm(cp.Yp[0])) * x_norm + t_pow * (
        yp_norm * x_norm + r_beta
    )
    return {
        "beta": beta,
        "holder": {"lhs": holder_lhs, "rhs": holder_rhs,
                   "ratio": 0.0 if holder_rhs == 0 else holder_lhs / holder_rhs},
        "path_norm": {"lhs": y_norm, "rhs": y_rhs,
                      "ratio": 0.0 if y_rhs == 0 else y_norm / y_rhs},
    }


# ---------------------------------------------------------------------------
# rough integral


def _level2_modulus(params: BesovParams):
    """(gamma, modulus) for the sewing target at level 3 alpha."""
    if not params.endpoint(2):
        return 3 * params.alpha, None
    return 1.0, EndpointModulus(r=params.q / 3, exponent=1.0)


def _integrand_arrays(cp: ControlledPath):
    if len(cp.value_shape) < 1 or cp.value_shape[-1] != cp.X.n:
        raise ValueError(
            "rough integrand must have a trailing driver axis: shape"
            f" (*, {cp.X.n}), got {cp.value_shape}"
        )
    grid_n = cp.X.grid.n
    y = cp.Y.reshape(grid_n, -1, cp.X.n)
    yp = cp.Yp.reshape(grid_n, -1, cp.X.n, cp.X.n)
    return y, yp


def rough_integral(
    cp: ControlledPath, report: bool = False
):
    """Z = int Y dX by the finest compensated sum of Y dX + Y' XX; Z' = Y.

    With report=True also returns the two-parameter norm of
    dZ - Y dX - Y' XX at (3a, p/3, q/3) (omega modulus at the endpoint).
    """
    X = cp.X
    params = X.params
    if not params.level2_ok:
        raise RegimeError(
            f"(alpha,p,q)={params.as_tuple} outside the level-2 regime")
    y, yp = _integrand_arrays(cp)
    grid = X.grid
    base = X.base_path().values
    dx = np.diff(base, axis=0)
    xx_cons = X.level(2).band(1).reshape(grid.n - 1, X.n, X.n)
    incs = _expansion_lead(y[:-1], dx, yp[:-1], xx_cons)
    z = np.vstack([np.zeros((1, incs.shape[1])), np.cumsum(incs, axis=0)])
    out_shape = cp.value_shape[:-1]
    z_out = z.reshape((grid.n,) + out_shape)
    result = ControlledPath(X, z_out, cp.Y.reshape(z_out.shape + (X.n,)))
    if not report:
        return result

    rem = _expansion_remainder(grid, base, z, y, yp, X.level(2))
    gamma, mod = _level2_modulus(params)
    p, q = params.p, params.q
    if mod is None:
        norm = two_param_norm(rem, gamma, p / 3, q / 3)
    else:
        norm = two_param_norm(rem, gamma, p / 3, INF, modulus=mod.omega)
    return result, {"remainder_norm": norm, "endpoint": mod is not None}


def compose_controlled(F: VectorField, cp: ControlledPath, report: bool = False):
    """(f(Y), Df(Y) Y') as a controlled pair; optional norm-bound report."""
    if len(cp.value_shape) != 1:
        raise ValueError("compose_controlled expects a state-valued pair (m,)")
    if F.order < 2:
        raise RegimeError("composition requires a C^2 (or better) field")
    values = F.values_along(cp.Y)  # (nodes, m', n')
    dvals = F.dfun(cp.Y)           # (nodes, m', n', m)
    yp_new = _chain(dvals, cp.Yp)
    out = ControlledPath(cp.X, values, yp_new)
    if not report:
        return out
    params = cp.X.params
    alpha, p, q = params.as_tuple
    x_norm = besov_seminorm(cp.X.base_path(), alpha, p, q, form="integral")
    base_norm = float(np.linalg.norm(cp.Yp[0])) + controlled_norm(cp)
    sup_f = max(
        float(np.abs(values).max()),
        float(np.abs(dvals).max()),
    )
    rhs = sup_f * (1 + x_norm) * max(base_norm, base_norm**2)
    lhs = controlled_norm(out)
    return out, {"lhs": lhs, "rhs": rhs,
                 "ratio": 0.0 if rhs == 0 else lhs / rhs}


# ---------------------------------------------------------------------------
# RDE solver


@dataclass
class RdeResult:
    controlled: ControlledPath
    iterations: list
    subintervals: list
    report: dict = dc_field(default_factory=dict)

    @property
    def path(self) -> GridPath:
        return self.controlled.y_path()


def _chain(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_c d[., a, j, c] y[., c, k] for (B, m', n', m) d and (B, m, n) y."""
    return _lane_sum(d[:, :, :, None], np.swapaxes(y, 1, 2)[:, None, None])


def _davie_coefficients(F: VectorField, Y: np.ndarray):
    """f(Y), (nodes, m, n), and Df(Y) f(Y), (nodes, m, n, n): the first- and
    second-level coefficients of the Davie expansion."""
    fv = F.values_along(Y)
    return fv, _chain(F.dfun(Y), fv)


def rde_solve(
    F: VectorField, X: RoughPath, y0, max_halvings: int = 12
) -> RdeResult:
    """Solve dY = F(Y) dX by the controlled Picard map on adaptive
    subintervals, seeded with the first-order Davie expansion; a subinterval
    converges at gauge < 1e-9 * max(1, sup |Y|)."""
    params = X.params
    _require_field(F, params, 2)
    alpha, p, q = params.as_tuple
    grid = X.grid
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    base = X.base_path().values
    dx_all = np.diff(base, axis=0)
    xx_all = X.level(2).band(1).reshape(grid.n - 1, X.n, X.n)
    p2 = p / 2
    q2 = q / 2

    def start(a, b, ya):
        f_ya = F.values_along(ya[None])[0]
        seed = ya[None, :] + _lane_sum(f_ya[None],
                                       (base[a:b + 1] - base[a])[:, None])
        return seed, np.repeat(f_ya[None, :, :], b - a + 1, axis=0)

    def sweep(a, b, ya, state, sub_grid):
        cur, cur_p = state
        fv, wp = _davie_coefficients(F, cur)
        incs = _expansion_lead(fv[:-1], dx_all[a:b], wp[:-1], xx_all[a:b])
        nxt = np.vstack([ya[None, :], ya + np.cumsum(incs, axis=0)])
        dp = fv - cur_p
        diff = GridPath(sub_grid, dp.reshape(b - a + 1, -1))
        dist = besov_seminorm(diff, alpha, p, q, form="dyadic")
        rem = _expansion_remainder(sub_grid, base[a:b + 1] - base[a],
                                   nxt - cur, dp)
        dist += _dyadic_sum(rem, 2 * alpha, p2, q2)
        return (nxt, fv), nxt, dist

    Y, iterations, subintervals, halvings = _adaptive_picard(
        grid, y0, start, sweep, 1e-9, max_halvings
    )
    yp = F.values_along(Y)
    cp = ControlledPath(X, Y, yp)
    t0 = subintervals[0][1] * grid.mesh if subintervals else grid.horizon
    inv_p = 1.0 / p
    report = {
        "halvings": halvings,
        "smallness_monitor": t0 ** (alpha - inv_p),
        "sup": float(np.abs(Y).max()),
    }
    return RdeResult(controlled=cp, iterations=iterations,
                     subintervals=subintervals, report=report)


# ---------------------------------------------------------------------------
# Davie residual and stability


def davie_residual(
    cp: ControlledPath,
    F: VectorField,
    h_range: tuple[float, float] | None = None,
) -> dict:
    """Residual D = dY - f(Y_s) dX - Df(Y_s) f(Y_s) XX on the driver cp.X,
    its two-parameter norm at (3a, p/3, q/3) (endpoint: the omega profile),
    and the log-log slope of sup_{|t-s|=h} |D| over dyadic h."""
    X = cp.X
    grid = X.grid
    params = X.params
    alpha, p, q = params.as_tuple
    Y = cp.Y
    fv, wp = _davie_coefficients(F, Y)
    D = _expansion_remainder(grid, X.base_path().values, Y.reshape(grid.n, -1),
                             fv, wp, X.level(2))
    endpoint = params.endpoint(2)
    if endpoint:
        norm = two_param_norm(D, 1.0, p / 3, INF)
        profile = _osc_profile(D, p / 3)
    else:
        norm = two_param_norm(D, 3 * alpha, p / 3, q / 3)
        profile = None
    if h_range is None:
        h_range = (grid.mesh * 4, grid.horizon / 8)
    hs, sups = [], []
    for lev, sup in enumerate(_dyadic_band_norms(D, INF), start=1):
        h = grid.horizon * 2.0**-lev
        if h_range[0] - 1e-15 <= h <= h_range[1] + 1e-15 and sup > 0:
            hs.append(h)
            sups.append(float(sup))
    if len(hs) >= 2:
        slope, r2 = _log_fit(np.log(hs), np.log(sups))
    else:
        slope, r2 = INF, 1.0
    return {"field": D, "norm": norm, "slope": slope, "r2": r2,
            "endpoint": endpoint, "profile": profile}


def _osc_profile(D: TwoParamField, p: float) -> list:
    from .sewing import small_oscillation_check

    return small_oscillation_check(D, p)["profile"]


def rde_stability_probe(
    F1: VectorField, F2: VectorField,
    X1: RoughPath, X2: RoughPath,
    y1, y2,
) -> dict:
    """Ito-Lyons local-Lipschitz probe: controlled distance of the two
    solutions over the distance of the data."""
    s1 = rde_solve(F1, X1, y1)
    s2 = rde_solve(F2, X2, y2)
    num = controlled_distance(s1.controlled, s2.controlled)
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    cloud = _probe_cloud(s1.controlled.Y, s2.controlled.Y)
    proxy = field_distance_proxy(F1, F2, cloud)
    sparse = cloud[:: max(1, len(cloud) // 32)]
    proxy += float(np.abs(F1.d2fun(sparse) - F2.d2fun(sparse)).max())
    den = float(np.linalg.norm(y1 - y2)) + rough_metric(X1, X2) + proxy
    return {
        "output_dist": num,
        "input_dist": den,
        "ratio": 0.0 if den == 0 else num / den,
        "solution_sup": (s1.report["sup"], s2.report["sup"]),
    }
