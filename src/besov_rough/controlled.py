"""Level-2 controlled rough paths: rough integration, composition, the RDE
solver, Davie residuals, and the Ito-Lyons stability probe.

Index conventions: a controlled pair (Y, Y') is held on component planes,
Y of shape (*vs, nodes) and Y' of shape (*vs, n, nodes), the axis before the
nodes contracting against driver increments.  Second-level entries XX[k, j]
carry the inner (earlier) index first, matching the left-point iterated sums
of the lifts, so the Davie expansion contracts as
sum_{j,k} (Df f)[a,j,k] XX[k,j].
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
    two_param_metric,
    two_param_norm,
    _add_lanes,
    _dyadic_band_norms,
    _dyadic_sum,
    _log_fit,
)
from .rough import RoughPath, rough_metric, _prefix_sums
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
    "rough_integral",
    "compose_controlled",
    "rde_solve",
    "RdeResult",
    "davie_residual",
    "rde_stability_probe",
]


class ControlledPath:
    """Pair (Y, Y') with the derived remainder field R = dY - Y' dX, held as
    C-contiguous component planes Y (*vs, nodes) and Y' (*vs, n, nodes),
    frozen in place; `y_path` and `yp_path` hold them as paths, uncopied."""

    def __init__(self, X: RoughPath, Y: np.ndarray, Yp: np.ndarray):
        Y = np.ascontiguousarray(Y, dtype=float)
        Yp = np.ascontiguousarray(Yp, dtype=float)
        nodes = X.grid.n
        if Y.shape[-1] != nodes or Yp.shape[-1] != nodes:
            raise ValueError("Y and Y' must be sampled on the driver grid")
        if Yp.shape != Y.shape[:-1] + (X.n, nodes):
            raise ValueError(f"Y' must have shape {Y.shape[:-1] + (X.n, nodes)},"
                             f" got {Yp.shape}")
        Y.setflags(write=False)
        Yp.setflags(write=False)
        self.X = X
        self.Y = Y
        self.Yp = Yp
        self._remainder = None

    @property
    def value_shape(self):
        return self.Y.shape[:-1]

    def y_path(self) -> GridPath:
        return GridPath._from_planes(self.X.grid,
                                     self.Y.reshape(-1, self.X.grid.n))

    def yp_path(self) -> GridPath:
        return GridPath._from_planes(self.X.grid,
                                     self.Yp.reshape(-1, self.X.grid.n))

    @property
    def remainder(self) -> TwoParamField:
        """Lazy cache of R[i][j] = dY - Y'_i dX[i][j] (recomputable exactly)."""
        if self._remainder is None:
            X, nodes = self.X, self.X.grid.n
            self._remainder = _expansion_remainder(
                X.grid, X.base_planes, self.Y.reshape(-1, nodes),
                self.Yp.reshape(-1, X.n, nodes))
        return self._remainder


def _expansion_lead(a, dx, b=None, xx=None) -> np.ndarray:
    """The controlled increment a dX + b XX on component planes, shape
    (m, B): a is (m, n, B) and dx (n, B); b, when given, is (m, n, n, B) and
    contracts with the level-2 planes xx (n*n, B), row k*n + j holding
    XX[k, j], as sum_{j,k} b[., j, k] XX[k, j], the terms in the order
    j*n + k.  Both sums add in the lane order of `norms._add_lanes`."""
    n = len(dx)
    lead = _add_lanes(a[:, t] * dx[t] for t in range(n))
    if b is None:
        return lead
    return lead + _add_lanes(b[:, t // n, t % n] * xx[t % n * n + t // n]
                             for t in range(n * n))


def _expansion_remainder(grid, base, v, a, b=None, xx_field=None
                         ) -> TwoParamField:
    """The Davie-type remainder v_t - v_s - a_s dX_st - b_s XX_st as a lazy
    field on `grid`, with dX_st = base_t - base_s, all on component planes:
    base is (n, nodes), v (m, nodes), a (m, n, nodes) and b, when given,
    (m, n, n, nodes), contracted with the level-2 field `xx_field` as in
    `_expansion_lead`."""

    def germ(ii, jj):
        terms = (a[..., ii], base[:, jj] - base[:, ii])
        if b is not None:
            terms += (b[..., ii], xx_field._planes(ii, jj))
        return v[:, jj] - v[:, ii] - _expansion_lead(*terms)

    return TwoParamField(grid, len(v), germ=germ)


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


# ---------------------------------------------------------------------------
# rough integral


def _level2_norm(rem: TwoParamField, params: BesovParams) -> float:
    """Two-parameter norm of a level-2 remainder at (3a, p/3, q/3); at the
    endpoint, (1, p/3, inf) against the omega_{q/3} modulus."""
    alpha, p, q = params.as_tuple
    if params.endpoint(2):
        omega = EndpointModulus(r=q / 3, exponent=1.0).omega
        return two_param_norm(rem, 1.0, p / 3, INF, modulus=omega)
    return two_param_norm(rem, 3 * alpha, p / 3, q / 3)


def _level2(X: RoughPath) -> TwoParamField:
    """The level-2 field of X, which the level-2 calculus needs."""
    if X.depth < 2:
        raise RegimeError("the level-2 calculus needs a rough path of depth"
                          f" >= 2; this one has depth {X.depth}")
    return X.level(2)


def rough_integral(
    cp: ControlledPath, report: bool = False
):
    """Z = int Y dX by the finest compensated sum of Y dX + Y' XX; Z' = Y.

    With report=True also returns the two-parameter norm of
    dZ - Y dX - Y' XX at (3a, p/3, q/3) (omega modulus at the endpoint).
    """
    X = cp.X
    params = X.params
    if not params.levelN_ok(2):
        raise RegimeError(
            f"(alpha,p,q)={params.as_tuple} outside the level-2 regime")
    if cp.value_shape[-1:] != (X.n,):
        raise ValueError(
            "rough integrand must have a driver axis before the nodes: shape"
            f" (*, {X.n}), got {cp.value_shape}"
        )
    xx = _level2(X)
    nodes, base = X.grid.n, X.base_planes
    y = cp.Y.reshape(-1, X.n, nodes)
    yp = cp.Yp.reshape(-1, X.n, X.n, nodes)
    z = _prefix_sums(_expansion_lead(y[..., :-1], np.diff(base), yp[..., :-1],
                                     xx.band(1).T))
    result = ControlledPath(X, z.reshape(cp.value_shape[:-1] + (nodes,)), cp.Y)
    if not report:
        return result

    rem = _expansion_remainder(X.grid, base, z, y, yp, xx)
    return result, {"remainder_norm": _level2_norm(rem, params),
                    "endpoint": params.endpoint(2)}


def compose_controlled(F: VectorField, cp: ControlledPath) -> ControlledPath:
    """(f(Y), Df(Y) Y') as a controlled pair."""
    if len(cp.value_shape) != 1:
        raise ValueError("compose_controlled expects a state-valued pair (m,)")
    if F.order < 2:
        raise RegimeError("composition requires a C^2 (or better) field")
    return ControlledPath(cp.X, F.values_along(cp.Y),  # (m', n', nodes)
                          _chain(F.dfun(cp.Y), cp.Yp))


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
    """sum_c d[a, j, c] y[c, k] on planes, for d (m', n', m, B) and
    y (m, n, B), in the lane order of `norms._add_lanes`."""
    return _add_lanes(d[:, :, c, None] * y[c] for c in range(len(y)))


def _davie_coefficients(F: VectorField, Y: np.ndarray):
    """f(Y), (m, n, nodes), and Df(Y) f(Y), (m, n, n, nodes), for the planes
    Y (m, nodes): the first- and second-level coefficients of the Davie
    expansion."""
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
    base = X.base_planes
    dx_all = np.diff(base)
    xx_all = _level2(X).band(1).T
    p2 = p / 2
    q2 = q / 2

    def start(a, b, ya):
        f_ya = F.values_along(ya[:, None])
        dbase = base[:, a:b + 1] - base[:, a, None]
        return ya[:, None] + _expansion_lead(f_ya, dbase), f_ya

    def sweep(a, b, ya, state, sub_grid):
        cur, cur_p = state
        fv, wp = _davie_coefficients(F, cur)
        incs = _expansion_lead(fv[..., :-1], dx_all[:, a:b],
                               wp[..., :-1], xx_all[:, a:b])
        nxt = np.hstack([ya[:, None], ya[:, None] + np.cumsum(incs, axis=1)])
        dp = fv - cur_p
        diff = GridPath._from_planes(sub_grid, dp.reshape(-1, b - a + 1))
        dist = besov_seminorm(diff, alpha, p, q, form="dyadic")
        rem = _expansion_remainder(
            sub_grid, base[:, a:b + 1] - base[:, a, None], nxt - cur, dp)
        dist += _dyadic_sum(rem, 2 * alpha, p2, q2)
        return (nxt, fv), nxt, dist

    Y, iterations, subintervals, halvings = _adaptive_picard(
        grid, y0, start, sweep, 1e-9, max_halvings
    )
    return RdeResult(controlled=ControlledPath(X, Y, F.values_along(Y)),
                     iterations=iterations, subintervals=subintervals,
                     report={"halvings": halvings})


# ---------------------------------------------------------------------------
# Davie residual and stability


def davie_residual(
    cp: ControlledPath,
    F: VectorField,
    h_range: tuple[float, float] | None = None,
) -> dict:
    """Residual D = dY - f(Y_s) dX - Df(Y_s) f(Y_s) XX on the driver cp.X:
    its level-2 remainder norm (`_level2_norm`, as in the rough integral's
    report) and the log-log slope of sup_{|t-s|=h} |D| over dyadic h."""
    X = cp.X
    grid = X.grid
    params = X.params
    Y = cp.Y.reshape(-1, grid.n)
    fv, wp = _davie_coefficients(F, Y)
    D = _expansion_remainder(grid, X.base_planes, Y, fv, wp, _level2(X))
    norm = _level2_norm(D, params)
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
    return {"norm": norm, "slope": slope, "r2": r2,
            "endpoint": params.endpoint(2)}


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
    sparse = cloud[:, :: max(1, cloud.shape[1] // 32)]
    proxy += float(np.abs(F1.d2fun(sparse) - F2.d2fun(sparse)).max())
    den = float(np.linalg.norm(y1 - y2)) + rough_metric(X1, X2) + proxy
    return {
        "output_dist": num,
        "input_dist": den,
        "ratio": 0.0 if den == 0 else num / den,
    }
