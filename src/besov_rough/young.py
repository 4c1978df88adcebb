"""Young integration and differential equations driven by Besov paths.

The integral germ is the left-point product f_s * (g_t - g_s); the ODE solver
iterates Y <- y0 + int F(Y) dX with a trapezoid-compensated germ
(1/2)(F(Y_s) + F(Y_t)) dX_{st}, which sews to the same integral (the germs
differ by (1/2) dF dX, of coboundary order) and keeps the discrete fixed
point second-order accurate on sampled smooth drivers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonContractionError, RegimeError
from .grid import GridPath, TwoParamField, UniformGrid
from .norms import (BesovParams, INF, _add_lanes, _outer, besov_seminorm,
                    lp_norm)
from .sewing import SewingInput, SewingResult, sew

__all__ = [
    "YoungRegime",
    "VectorField",
    "linear_field",
    "rotation_field",
    "sigmoid_field",
    "scalar_linear_field",
    "young_integral",
    "YoungIntegralResult",
    "young_ode_solve",
    "OdeSolution",
]


def _harmonic(a: float, b: float) -> float:
    inv = 1.0 / a + 1.0 / b
    return INF if inv == 0.0 else 1.0 / inv


@dataclass(frozen=True)
class YoungRegime:
    """Parameter bookkeeping for the product germ f_s * dg.

    gamma = alpha0 + alpha1 and the Hoelder-conjugate p2, q2.  The sewing
    input is regular for gamma > max(1, 1/p2) and at the endpoint for the
    critical gamma = max(1, 1/p2), to within 1e-12, which needs
    q2 <= min(1, p2).
    """

    f_params: BesovParams
    g_params: BesovParams

    @property
    def gamma(self) -> float:
        return self.f_params.alpha + self.g_params.alpha

    @property
    def p2(self) -> float:
        return _harmonic(self.f_params.p, self.g_params.p)

    @property
    def q2(self) -> float:
        return _harmonic(self.f_params.q, self.g_params.q)

    def sewing_input(self, germ: TwoParamField) -> SewingInput:
        """The sewing target; `SewingInput` rejects a triple outside both
        cases."""
        crit = max(1.0, 1.0 / self.p2)
        endpoint = abs(self.gamma - crit) <= 1e-12
        return SewingInput(germ=germ, gamma=crit if endpoint else self.gamma,
                           p2=self.p2, q2=self.q2, endpoint=endpoint)


class VectorField:
    """Nonlinearity y -> f(y) in R^{m x n} with analytic derivatives, all
    evaluated on a batch of B states held as component planes Y (m, B), one
    column per state: `fun(Y)` is (m, n, B), `dfun(Y)` is (m, n, m, B) and
    `d2fun(Y)` is (m, n, m, m, B).

    `order` is the number of supplied derivatives; `delta` the Hoelder
    exponent of the highest one (class C^{order,delta}).
    """

    def __init__(self, fun, dfun, d2fun=None, order=1, delta=1.0, name="field",
                 state_dim=1):
        self.fun = fun
        self.dfun = dfun
        self.d2fun = self._no_d2fun if d2fun is None else d2fun
        self.order = order
        self.delta = delta
        self.name = name
        self.state_dim = state_dim

    def _no_d2fun(self, Y):
        raise RegimeError(f"{self.name}: second derivative not supplied")

    def validate(self, rng) -> float:
        """Max relative error of dfun against central differences of fun
        (step 1e-6) at 20 standard normal states; above 1e-5 it raises."""
        step, rtol = 1e-6, 1e-5
        Y = rng.standard_normal((20, self.state_dim)).T
        d_exact = self.dfun(Y)
        worst = 0.0
        for b, e in enumerate(step * np.eye(self.state_dim)[..., None]):
            fd = (self.fun(Y + e) - self.fun(Y - e)) / (2 * step)
            exact = d_exact[:, :, b]
            denom = np.maximum(1.0, np.abs(exact).max(axis=(0, 1)))
            err = np.abs(fd - exact).max(axis=(0, 1)) / denom
            worst = max(worst, float(err.max()))
        if worst > rtol:
            raise RegimeError(
                f"{self.name}: derivative inconsistent with finite differences"
                f" (rel err {worst:.2e} > {rtol:g})"
            )
        return worst

    def values_along(self, Y: np.ndarray) -> np.ndarray:
        """f(Y_t) for the nodes of the planes Y (m, nodes), shape
        (m, n, nodes); the solvers and probes evaluate f through this
        method."""
        return self.fun(Y)


def linear_field(matrices) -> VectorField:
    """f(y)[:, j] = A_j y for a list of (m, m) matrices, one per driver channel."""
    mats = np.stack([np.asarray(a, dtype=float) for a in matrices], axis=-1)
    m, n = mats.shape[0], mats.shape[2]
    dmat = np.transpose(mats, (0, 2, 1))[..., None]
    return VectorField(
        lambda Y: _add_lanes(dmat[:, :, c] * Y[c] for c in range(m)),
        lambda Y: np.broadcast_to(dmat, dmat.shape[:-1] + Y.shape[1:]),
        d2fun=lambda Y: np.zeros((m, n, m, m) + Y.shape[1:]),
        order=3, delta=1.0, name="linear", state_dim=m,
    )


def rotation_field() -> VectorField:
    """Two noncommuting linear channels on R^2 (rotation + shear generators)."""
    return linear_field([
        np.array([[0.0, -1.0], [1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
    ])


def scalar_linear_field() -> VectorField:
    """dY = Y dX in one dimension."""
    return linear_field([np.array([[1.0]])])


def sigmoid_field(m: int = 1, n: int = 1) -> VectorField:
    """Bounded C^3 saturating field: f[a, j] = tanh(w_{aj} . y)."""
    w = np.zeros((m, n, m, 1))
    for a in range(m):
        for j in range(n):
            w[a, j, (a + j) % m] = 1.0

    def fun(Y):
        return np.tanh(_add_lanes(w[:, :, c] * Y[c] for c in range(m)))

    def dfun(Y):
        return (1.0 - fun(Y) ** 2)[:, :, None] * w

    def d2fun(Y):
        t = fun(Y)
        s = 1.0 - t**2
        return ((-2.0 * t * s)[:, :, None, None] * w[:, :, :, None]
                * w[:, :, None])

    return VectorField(fun, dfun, d2fun=d2fun, order=3, delta=1.0,
                       name="sigmoid", state_dim=m)


# ---------------------------------------------------------------------------
# integration


@dataclass
class YoungIntegralResult:
    sewing: SewingResult

    @property
    def integral(self) -> GridPath:
        return self.sewing.integral

    @property
    def remainder_norm(self) -> float:
        return self.sewing.remainder_norm

    @property
    def endpoint(self) -> bool:
        return self.sewing.input.endpoint


def product_germ(f: GridPath, g: GridPath) -> TwoParamField:
    """Left-point germ f_s (g_t - g_s), one component per (i, j) pair of
    coordinates of f and g."""
    if f.grid != g.grid:
        raise ValueError("paths must share a grid")
    fv, gv = f.planes, g.planes
    dim = f.dim * g.dim

    def germ(ii, jj):
        return _outer(fv[:, ii], gv[:, jj] - gv[:, ii])

    return TwoParamField(f.grid, dim, germ=germ)


def young_integral(
    f: GridPath, g: GridPath, regime: YoungRegime, diagnostics: bool = False
) -> YoungIntegralResult:
    """int f dg by sewing the left-point product germ.

    The result's `remainder_norm`, computed when read, is the (gamma, p2,
    q2) two-parameter norm of (delta I) - f dg, against the omega modulus in
    the critical case.
    """
    sewing = sew(regime.sewing_input(product_germ(f, g)), diagnostics=diagnostics)
    return YoungIntegralResult(sewing)


# ---------------------------------------------------------------------------
# Young ODE


@dataclass
class OdeSolution:
    path: GridPath
    iterations: list
    subintervals: list
    bound: dict


def _solver_metric(a: np.ndarray, b: np.ndarray, grid, params: BesovParams) -> float:
    """Cheap contraction gauge of the planes a, b (m, nodes): L^p plus the
    dyadic-form seminorm (O(n log n)); equivalent, up to constants, to the
    full integral-form metric."""
    d = GridPath._from_planes(grid, a - b)
    return lp_norm(d, params.p) + besov_seminorm(
        d, params.alpha, params.p, params.q, form="dyadic"
    )


def _require_field(F: VectorField, params: BesovParams, n_level: int):
    """The level-N regime of (alpha, p, q) and the field class it needs:
    C^{N,delta} with (N + delta) alpha > 1 and delta alpha > 1/p, or C^{N+1}
    at the endpoint alpha = 1/(N+1).  N = 1 is Young, N = 2 the RDE."""
    if not params.levelN_ok(n_level):
        raise RegimeError(
            f"(alpha,p,q)={params.as_tuple} outside the level-{n_level} regime")
    alpha, p, _ = params.as_tuple
    if params.endpoint(n_level):
        ok = F.order >= n_level + 1
    else:
        ok = (F.order >= n_level and (n_level + F.delta) * alpha > 1
              and (p == INF or F.delta * alpha > 1.0 / p))
    if not ok:
        raise RegimeError(
            f"field class C^{{{F.order},{F.delta}}} too weak for (alpha,p,q)="
            f"{params.as_tuple}: level {n_level} needs C^{{{n_level},delta}}"
            f" with ({n_level}+delta)*alpha > 1 and delta*alpha > 1/p, or"
            f" C^{n_level + 1} at the endpoint alpha = 1/{n_level + 1}")


def _adaptive_picard(grid, y0, start, sweep, tol, max_halvings):
    """Picard iteration on adaptive dyadic subintervals, shared by the Young
    ODE and the RDE solver.

    Iterates are component planes: the solution Y is (m, nodes).  Spans
    start at the whole grid.  On [a, b], ``start(a, b, y_a)`` gives the
    first iterate and ``sweep(a, b, y_a, state, sub_grid)`` one Picard sweep
    as ``(state, path, gauge)``, the path (m, b - a + 1).  A subinterval
    converges once gauge < tol * max(1, sup|path|); it is halved when the
    gauge ratio of consecutive sweeps reaches 1/2 from the third sweep on,
    or when 100 sweeps end without convergence.  The span never grows back.
    At most `max_halvings` halvings are allowed since the last converged
    subinterval; the total is returned.  An iterate that is not finite
    raises OverflowError at once, since a shorter span does not shrink the
    driver.
    """
    Y = np.empty((len(y0), grid.n))
    Y[:, 0] = y0
    a = 0
    span = grid.n_cells
    iterations, subintervals = [], []
    halvings = stretch = 0
    while a < grid.n_cells:
        span = min(span, grid.n_cells - a)
        b = a + span
        sub_grid = UniformGrid(span * grid.mesh, span.bit_length() - 1)
        ya = Y[:, a]
        state = start(a, b, ya)
        converged = False
        prev_gauge = None
        for it in range(1, 101):
            state, path, gauge = sweep(a, b, ya, state, sub_grid)
            sup = float(np.abs(path).max())
            if not math.isfinite(sup):
                raise OverflowError(
                    f"the Picard iterate on [{a}, {b}] overflows float64")
            if gauge < tol * max(1.0, sup):
                converged = True
                break
            if it >= 3 and prev_gauge > 0 and gauge / prev_gauge >= 0.5:
                break
            prev_gauge = gauge
        if not converged:
            halvings += 1
            stretch += 1
            if stretch > max_halvings or span == 1:
                raise NonContractionError(
                    f"no contraction on [{a}, {b}] after {stretch - 1} halvings"
                )
            span //= 2
            continue
        Y[:, a:b + 1] = path
        iterations.append(it)
        subintervals.append((a, b))
        stretch = 0
        a = b
    return Y, iterations, subintervals, halvings


def young_ode_solve(
    F: VectorField,
    X: GridPath,
    y0,
    params: BesovParams,
    max_halvings: int = 12,
) -> OdeSolution:
    """Solve dY = F(Y) dX by Picard iteration on adaptive subintervals.

    Each sweep is Y <- y0 + I(germ) with the trapezoid-compensated germ; a
    subinterval converges at gauge < 1e-10 * max(1, sup |Y|) and is halved
    whenever the contraction factor reaches 1/2.
    """
    _require_field(F, params, 1)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    dX = np.diff(X.planes, axis=1)

    def start(a, b, ya):
        return np.repeat(ya[:, None], b - a + 1, axis=1)

    def sweep(a, b, ya, cur, sub_grid):
        fvals = F.values_along(cur)  # (m, n, span+1)
        fsum, dx = fvals[..., :-1] + fvals[..., 1:], dX[:, a:b]
        incs = 0.5 * _add_lanes(fsum[:, t] * dx[t] for t in range(len(dx)))
        nxt = np.hstack([ya[:, None], ya[:, None] + np.cumsum(incs, axis=1)])
        return nxt, nxt, _solver_metric(nxt, cur, sub_grid, params)

    Y, iterations, subintervals, halvings = _adaptive_picard(
        X.grid, y0, start, sweep, 1e-10, max_halvings
    )
    path = GridPath._from_planes(X.grid, Y)
    bound = {
        "sup": float(np.abs(Y).max()),
        "seminorm": besov_seminorm(path, params.alpha, params.p, params.q,
                                   form="dyadic"),
        "halvings": halvings,
    }
    return OdeSolution(path=path, iterations=iterations,
                       subintervals=subintervals, bound=bound)


def field_distance_proxy(F1: VectorField, F2: VectorField,
                         cloud: np.ndarray) -> float:
    """Max value plus first-derivative gap over a sample cloud of planes
    (m, B)."""
    dv = np.abs(F1.values_along(cloud) - F2.values_along(cloud)).max()
    dd = np.abs(F1.dfun(cloud) - F2.dfun(cloud)).max()
    return float(dv) + float(dd)


def _probe_cloud(*paths: np.ndarray) -> np.ndarray:
    """The states of the planes `paths` (m, nodes) at a stride that keeps
    128-255 of them (all, if fewer), each also moved by +-radius/2 and
    +-radius along every axis: planes (m, B), offset-major."""
    pts = np.hstack(paths)
    pts = pts[:, ::max(1, pts.shape[1] // 128)]
    m = len(pts)
    radius = 2.0 * max(1e-9, float(np.abs(pts).max()))
    offsets = [np.zeros(m)]
    for j in range(m):
        for s in (0.5, 1.0):
            e = np.zeros(m)
            e[j] = s * radius
            offsets.extend([e, -e])
    return (pts[:, None] + np.transpose(offsets)[..., None]).reshape(m, -1)
