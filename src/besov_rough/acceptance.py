"""Acceptance suite: one function per criterion, each returning a result dict
with a `passed` flag and the measured quantities.  `run_suite` executes them
in order and prints one pass/fail line per criterion.

Tolerances are fixed here, not calibrated at run time.
"""
from __future__ import annotations

import math
import time

import numpy as np

from ._rng import rng_for
from .grid import GridPath, UniformGrid
from .norms import (
    INF,
    BesovParams,
    besov_seminorm,
    oscillation_variation,
    pvariation,
)
from .sewing import SewingInput, rate_certificate, sew
from .signals import brownian_path, heaviside, pw_linear_random, sawtooth
from .young import (
    YoungRegime,
    linear_field,
    rotation_field,
    scalar_linear_field,
    product_germ,
    young_integral,
    young_ode_solve,
)
from .rough import (
    brownian_lift,
    canonical_lift,
    chen_residual,
    dilate,
    geometric_lift,
    lyons_extend,
)
from .controlled import (
    ControlledPath,
    davie_residual,
    rde_solve,
    rde_stability_probe,
    rough_integral,
)
from .stochlab import bm_besov_statistic, pprod_bdg_experiment

SEED = 2024


def _result(passed: bool, **details) -> dict:
    details["passed"] = bool(passed)
    return details


def criterion_01_heaviside_critical_norm() -> dict:
    grid = UniformGrid(1.0, 12)
    h = heaviside(grid)
    values = {p: besov_seminorm(h, 1.0 / p, p, INF, form="dyadic") for p in (2, 4)}
    passed = all(abs(v - 1.0) <= 0.02 for v in values.values())
    return _result(passed, values=values, target=1.0, tolerance=0.02)


def criterion_02_norm_form_equivalence() -> dict:
    cells = [(2.0, 2.0), (4.0, INF), (8.0, 4.0), (INF, INF)]
    per_cell = {}
    passed = True
    for ci, (p, q) in enumerate(cells):
        cs = {}
        for level in (10, 12):
            grid = UniformGrid(1.0, level)
            worst = 1.0
            for k in range(50):
                rng = rng_for(SEED, f"equiv-cell{ci}", k)
                lo = 1.0 / p + 0.05
                alpha = lo + (0.95 - lo) * rng.random()
                f = pw_linear_random(grid, rng, breaks_level=4)
                dy = besov_seminorm(f, alpha, p, q, form="dyadic")
                it = besov_seminorm(f, alpha, p, q, form="integral")
                if dy > 0 and it > 0:
                    r = dy / it
                    worst = max(worst, r, 1.0 / r)
            cs[level] = worst
        drift = abs(cs[12] / cs[10] - 1.0)
        per_cell[f"p={p},q={q}"] = {"C10": cs[10], "C12": cs[12], "drift": drift}
        passed = passed and drift < 0.10
    return _result(passed, cells=per_cell, drift_tolerance=0.10)


def criterion_03_heaviside_divergence() -> dict:
    values = {}
    for level in (8, 12, 16):
        grid = UniformGrid(1.0, level)
        values[level] = besov_seminorm(heaviside(grid), 0.5, 2.0, 2.0,
                                       form="dyadic")
    ls = np.array(sorted(values))
    v = np.array([values[int(x)] for x in ls])
    root = np.sqrt(ls)
    c = float(np.dot(v, root) / np.dot(root, root))
    resid = float(np.max(np.abs(v - c * root) / v))
    return _result(resid < 0.10, values=values, fit_constant=c,
                   max_rel_residual=resid)


def criterion_04_sawtooth_sharpness() -> dict:
    grid = UniformGrid(1.0, 10)
    alpha, p, q, r = 0.5, 8.0, 8.0, 1.6
    besov = {n: besov_seminorm(sawtooth(grid, n, alpha), alpha, p, q,
                               form="dyadic") for n in (2, 4, 6)}
    pvar = {n: pvariation(sawtooth(grid, n, alpha), r) for n in (2, 4, 6)}
    bounds = {n: 2.0 ** (n * (1 / r - alpha)) * (1 - 1e-9) for n in (2, 4, 6)}
    passed = all(besov[n] <= 3.0 * besov[2] for n in (2, 4, 6)) and all(
        pvar[n] >= bounds[n] for n in (2, 4, 6)
    )
    return _result(passed, besov=besov, pvariation=pvar, lower_bounds=bounds)


def criterion_05_vp_sandwich() -> dict:
    grid = UniformGrid(1.0, 8)
    worst_low, worst_high = INF, -INF
    passed = True
    for k in range(50):
        rng = rng_for(SEED, "sandwich", k)
        f = pw_linear_random(grid, rng, breaks_level=5)
        p = 1.0 + 3.0 * rng.random()
        pv = pvariation(f, p)
        ov = oscillation_variation(f, p)
        slack = 1e-12 * max(1.0, pv)
        passed = passed and (0.5 * pv <= ov + slack) and (ov <= pv + slack)
        if pv > 0:
            worst_low = min(worst_low, ov / pv)
            worst_high = max(worst_high, ov / pv)
    return _result(passed, ratio_range=(worst_low, worst_high), paths=50)


def criterion_06_sewing_rate() -> dict:
    grid = UniformGrid(1.0, 12)
    s = GridPath(grid, np.sin(grid.times()))
    germ = product_germ(s, s)
    result = sew(SewingInput(germ=germ, gamma=2.0, p2=INF, q2=INF),
                 diagnostics=True)
    cert = rate_certificate(result, n_range=(3, 10))
    passed = abs(cert["slope"] - (-1.0)) <= 0.2 and cert["r2"] >= 0.98
    return _result(passed, slope=cert["slope"], expected=-1.0, r2=cert["r2"])


def criterion_07_young_integral_oracle() -> dict:
    exact = -0.5 + math.sin(2.0) / 4.0
    errs = {}
    for level in (10, 12):
        grid = UniformGrid(1.0, level)
        t = grid.times()
        reg = YoungRegime(BesovParams(0.9, INF, INF), BesovParams(0.9, INF, INF))
        out = young_integral(GridPath(grid, np.sin(t)), GridPath(grid, np.cos(t)),
                             reg)
        errs[level] = abs(float(out.integral.values[-1, 0]) - exact)
    order = math.log2(errs[10] / errs[12]) / 2.0
    passed = errs[12] < 1e-4 and order >= 0.9
    return _result(passed, exact=exact, errors=errs, observed_order=order)


def criterion_08_young_ode_oracle() -> dict:
    grid = UniformGrid(1.0, 12)
    t = grid.times()
    sol = young_ode_solve(scalar_linear_field(), GridPath(grid, np.sin(t)), 1.0,
                          BesovParams(0.9, INF, INF))
    err = float(np.abs(sol.path.values[:, 0] - np.exp(np.sin(t))).max())
    return _result(err < 1e-6, sup_error=err, iterations=sol.iterations)


def criterion_09_chen_exactness() -> dict:
    grid = UniformGrid(1.0, 10)
    t = grid.times()
    smooth = GridPath(grid, np.column_stack([np.sin(t), np.cos(2 * t)]))
    residuals = {
        "canonical": chen_residual(canonical_lift(smooth, 2)),
        "ito": chen_residual(brownian_lift(2, grid, rng_for(SEED, "chen-bm"),
                                           "ito")),
        "stratonovich": chen_residual(
            brownian_lift(2, grid, rng_for(SEED, "chen-bm"), "stratonovich")
        ),
    }
    lift = canonical_lift(smooth, 2)
    value = lift.level(2).at(256, 512)
    value[0] += 1e-3
    fault = chen_residual(lift.with_pairs(2, [256], [512], value))
    passed = max(residuals.values()) <= 1e-10 and fault >= 5e-4
    return _result(passed, residuals=residuals, fault_residual=fault)


def criterion_10_lyons_extension_oracle() -> dict:
    grid = UniformGrid(1.0, 10)
    t = grid.times()
    smooth = GridPath(grid, np.column_stack([np.sin(t), np.cos(2 * t)]))
    params = BesovParams(0.6, 32.0, INF)
    x1 = canonical_lift(smooth, 1, params)
    ext = lyons_extend(x1, 2)
    ref = canonical_lift(smooth, 2, params)
    ii, jj = np.triu_indices(grid.n, k=1)
    err = float(np.abs(ext.level(2).pairs(ii, jj)
                       - ref.level(2).pairs(ii, jj)).max())
    lam = 1.7
    a = lyons_extend(dilate(x1, lam), 2)
    b = dilate(ext, lam)
    commute = float(np.abs(a.level(2).pairs(ii, jj)
                           - b.level(2).pairs(ii, jj)).max())
    passed = err < 1e-10 and commute < 1e-12
    return _result(passed, extension_error=err, dilation_commutator=commute)


def criterion_11_ito_formula() -> dict:
    grid = UniformGrid(1.0, 10)
    samples = 2000
    vals = np.empty(samples)
    for s in range(samples):
        lift = brownian_lift(1, grid, rng_for(SEED, "ito-formula", s), "ito")
        w = lift.base_path().values
        cp = ControlledPath(lift, w.reshape(1, 1, grid.n),
                            np.ones((1, 1, 1, grid.n)))
        z = rough_integral(cp)
        vals[s] = z.Y.ravel()[-1] + 0.5 - 0.5 * w[-1, 0] ** 2
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return _result(abs(mean) <= 3 * se, mean=mean, stderr=se, samples=samples)


def _rotation_setup(level: int = 12):
    grid = UniformGrid(1.0, level)
    t = grid.times()
    driver = GridPath(grid, np.column_stack([np.sin(t), np.cos(2 * t)]))
    lift = geometric_lift(driver, 2, BesovParams(0.5, INF, INF))
    return grid, lift


def _rk4_rotation_reference(grid: UniformGrid, y0: np.ndarray,
                            refine: int = 8) -> np.ndarray:
    a1 = np.array([[0.0, -1.0], [1.0, 0.0]])
    a2 = np.array([[1.0, 0.0], [0.0, -1.0]])

    def rhs(tt, y):
        return (a1 * math.cos(tt) - 2.0 * a2 * math.sin(2 * tt)) @ y

    h = grid.mesh / refine
    y = y0.copy()
    out = [y0.copy()]
    tt = 0.0
    for i in range(grid.n_cells * refine):
        k1 = rhs(tt, y)
        k2 = rhs(tt + h / 2, y + h / 2 * k1)
        k3 = rhs(tt + h / 2, y + h / 2 * k2)
        k4 = rhs(tt + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tt += h
        if (i + 1) % refine == 0:
            out.append(y.copy())
    return np.asarray(out)


def criterion_12_rde_oracle() -> dict:
    grid, lift = _rotation_setup(12)
    y0 = np.array([1.0, 0.5])
    sol = rde_solve(rotation_field(), lift, y0)
    ref = _rk4_rotation_reference(grid, y0)
    err = float(np.abs(sol.path.values - ref).max())
    return _result(err < 1e-4, sup_error=err, iterations=sol.iterations)


def criterion_13_davie_slope() -> dict:
    grid = UniformGrid(1.0, 12)
    t = grid.times()
    lift = geometric_lift(GridPath(grid, np.sin(t)), 2,
                          BesovParams(0.5, INF, INF))
    sol = rde_solve(scalar_linear_field(), lift, 1.0)
    dav = davie_residual(sol.controlled, scalar_linear_field(),
                         h_range=(2.0**-10, 2.0**-4))
    passed = abs(dav["slope"] - 3.0) <= 0.3
    return _result(passed, slope=dav["slope"], r2=dav["r2"], norm=dav["norm"])


def criterion_14_ito_lyons_stability() -> dict:
    grid, lift = _rotation_setup(12)
    field = rotation_field()
    y0 = np.array([1.0, 0.5])
    mats = [np.array([[0.0, -1.0], [1.0, 0.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]])]
    ratios = {}
    for eps in (1e-1, 1e-2, 1e-3):
        probe = rde_stability_probe(field, field, lift, lift,
                                    y0, y0 + np.array([eps, 0.0]))
        ratios[f"y0:{eps:g}"] = probe["ratio"]
        probe = rde_stability_probe(field, field, lift, dilate(lift, 1.0 + eps),
                                    y0, y0)
        ratios[f"dilation:{eps:g}"] = probe["ratio"]
        scaled = linear_field([(1.0 + eps) * m for m in mats])
        probe = rde_stability_probe(field, scaled, lift, lift, y0, y0)
        ratios[f"field:{eps:g}"] = probe["ratio"]
    vals = np.array(list(ratios.values()))
    spread = float(vals.max() / vals.min())
    return _result(spread < 5.0, ratios=ratios, spread=spread)


def criterion_15_bm_statistic() -> dict:
    rep = bm_besov_statistic(4.0, [4, 5, 6, 7, 8, 9, 10], level=12,
                             samples=2000, seed=SEED, oracle_samples=20000)
    zs = {}
    for n in (4, 6, 8):
        row = rep["per_n"][n]
        se = math.sqrt(row["stderr"] ** 2 + row["oracle_stderr_window"] ** 2)
        zs[n] = abs(row["mean"] - row["oracle_mean_window"]) / se
    slope = rep["variance_slope"]
    passed = all(z <= 3.0 for z in zs.values()) and abs(slope - (-1.0)) <= 0.3
    return _result(passed, z_scores=zs, variance_slope=slope,
                   variance_r2=rep["variance_r2"])


def criterion_16_pprod_bdg_stability() -> dict:
    out = pprod_bdg_experiment(
        0.45, 0.6, (8.0, 8.0, 4.0), (8.0, 8.0, 4.0), (8.0, 8.0, 4.0),
        lengths=(128, 256, 512), samples=500, seed=SEED,
    )
    p99 = [out["lengths"][L]["ratio_p99"] for L in (128, 256, 512)]
    bdg = [out["lengths"][L]["bdg_p99"] for L in (128, 256, 512)]
    spread = max(p99) / min(p99)
    bdg_spread = max(bdg) / min(bdg)
    passed = spread < 2.0 and bdg_spread < 2.0
    return _result(passed, p99_by_length=dict(zip((128, 256, 512), p99)),
                   bdg_p99_by_length=dict(zip((128, 256, 512), bdg)),
                   p99_spread=spread, bdg_spread=bdg_spread)


def criterion_17_brownian_dichotomy() -> dict:
    """q < infinity divergence vs q = infinity stability, 20 refined seeds.

    Growth of the finite-q side is measured on the defining dyadic q-sum
    sum_n ((2^n/T)^a |delta_{2^-n} W|_{L^p})^q, the quantity the divergence
    statement is about (the outer 1/q power of any level sum grows only like
    (14/10)^{1/q} ~ 4% per four levels, for any path whatsoever); the
    q = infinity side is the plain dyadic sup norm.
    """
    fine = UniformGrid(1.0, 14)
    g88, ginf = [], []
    for s in range(20):
        w14 = brownian_path(fine, rng_for(SEED, "dichotomy", s))
        w10 = w14.subsample(4)
        qsum = {}
        supn = {}
        for path in (w10, w14):
            level = path.grid.level
            qsum[level] = besov_seminorm(path, 0.5, 8.0, 8.0, form="dyadic") ** 8.0
            supn[level] = besov_seminorm(path, 0.45, 8.0, INF, form="dyadic")
        g88.append(qsum[14] / qsum[10])
        ginf.append(supn[14] / supn[10])
    growth = float(np.median(g88))
    stability = float(np.median(ginf))
    passed = growth >= 1.20 and abs(stability - 1.0) < 0.10
    return _result(passed, qsum_growth_median=growth,
                   norm_growth_median=float(np.median(np.array(g88) ** (1 / 8.0))),
                   sup_norm_ratio_median=stability)


CRITERIA = [
    ("01", "heaviside critical norm", criterion_01_heaviside_critical_norm),
    ("02", "norm-form equivalence", criterion_02_norm_form_equivalence),
    ("03", "heaviside divergence sqrt(L)", criterion_03_heaviside_divergence),
    ("04", "sawtooth sharpness", criterion_04_sawtooth_sharpness),
    ("05", "V^p sandwich", criterion_05_vp_sandwich),
    ("06", "sewing rate certificate", criterion_06_sewing_rate),
    ("07", "Young integral oracle", criterion_07_young_integral_oracle),
    ("08", "Young ODE oracle", criterion_08_young_ode_oracle),
    ("09", "Chen exactness + fault", criterion_09_chen_exactness),
    ("10", "Lyons extension oracle", criterion_10_lyons_extension_oracle),
    ("11", "rough integral Ito formula", criterion_11_ito_formula),
    ("12", "RDE rotation oracle", criterion_12_rde_oracle),
    ("13", "Davie slope", criterion_13_davie_slope),
    ("14", "Ito-Lyons stability", criterion_14_ito_lyons_stability),
    ("15", "BM Besov statistic", criterion_15_bm_statistic),
    ("16", "paraproduct BDG stability", criterion_16_pprod_bdg_stability),
    ("17", "Brownian Besov-q dichotomy", criterion_17_brownian_dichotomy),
]


def run_suite(ids=None) -> list:
    """Run the acceptance criteria, printing one line per criterion."""
    results = []
    for cid, name, fn in CRITERIA:
        if ids and cid not in ids:
            continue
        start = time.time()
        res = fn()
        res.update(id=cid, name=name, elapsed=round(time.time() - start, 3))
        results.append(res)
        tag = "PASS" if res["passed"] else "FAIL"
        print(f"[{tag}] {cid} {name} ({res['elapsed']:.2f}s)")
    return results
