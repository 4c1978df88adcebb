"""The three benchmark workloads: inputs made from the seed, the timed op
list, and the output checks.

A workload is built by `WORKLOADS[name](size, seed, workdir, refs)`, which
writes or constructs every input (the pass's set-up) and returns the ops.
Each op has a `run` callable, timed by the pass runner, and a `check`
callable, run after all ops so that oracles and file parsing stay outside the
timed region.  A check raises `CheckFailed`.

Why these workloads:

* rough-files -- the only workload where rough-path directory and CSV I/O
  (`cli`, `grid`) dominate; `lift` only writes, `extend` reads and writes,
  `rde` only reads.
* solvers -- in-process library calls with no files; time goes to band
  evaluation of lazy signature and difference fields and to Picard sweeps.
* mc-stats -- thousands of small dense fields and per-sample Python
  overhead (`stochlab`, `norms`, `_rng`); the fBm Cholesky sets peak memory.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 2024

# Grid levels and sample counts.  "smoke" runs every op and every check in
# seconds with the same tolerances; the ops whose checks are discretization
# oracles (RK4, exp, sewing slope) keep the finer levels those need.
SIZES = {
    "full": {
        "lift": 8, "norm": 14, "var": 11, "sew": 7, "ode_cli": 14,
        "rde": 14, "probe": 10, "young_ode": 16, "young_int": 12,
        "slope_range": (3, 10),
        "bm": {"level": 12, "samples": 120, "ns": [4, 5, 6, 7, 8, 9, 10]},
        "pprod": {"samples": 20, "lengths": [128, 256, 512]},
        "fbm": {"level": 11, "samples": 30, "ns": [4, 6, 8]},
    },
    "smoke": {
        "lift": 6, "norm": 6, "var": 5, "sew": 5, "ode_cli": 14,
        "rde": 8, "probe": 5, "young_ode": 14, "young_int": 8,
        "slope_range": (2, 6),
        "bm": {"level": 6, "samples": 20, "ns": [2, 3, 4]},
        "pprod": {"samples": 5, "lengths": [16, 32]},
        "fbm": {"level": 6, "samples": 5, "ns": [2, 3, 4]},
    },
}

# Per-op metrics reported with the per-layer ones: metric -> (workload, ops).
# A "_s" metric is the mean seconds per listed op; mc_samples_per_s is the
# samples of `mc_samples` over the summed seconds of its ops.
OP_METRICS = {
    "lift_s": ("rough-files", ["lift"]),
    "extend_s": ("rough-files", ["extend"]),
    "rde_s": ("rough-files", ["rde"]),
    "probe_s": ("solvers", ["probe_y0", "probe_dilation", "probe_field"]),
    "mc_samples_per_s": ("mc-stats", ["mc_bm_ynp", "mc_pprod_bdg",
                                      "mc_fbm_ynp"]),
}

CHEN_TOL = 1e-10
RK4_TOL = 1e-4
EXP_TOL = 1e-6
SLOPE_TOL = 0.2
PROBE_SPREAD = 5.0
Z_MAX = 5.0
REF_RTOL = 1e-9


class CheckFailed(Exception):
    """An op ran but its output is wrong or malformed."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def stream(seed: int, name: str) -> np.random.Generator:
    """Benchmark-side generator for one named input of one seed."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def sub_seed(seed: int, name: str) -> int:
    return int(stream(seed, name).integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# input files


def grid_times(level: int) -> np.ndarray:
    return np.arange((1 << level) + 1) / float(1 << level)


def write_path_csv(path: str, level: int, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float).reshape((1 << level) + 1, -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v{j}" for j in range(values.shape[1])])
        for t, row in zip(grid_times(level), values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def write_germ_csv(path: str, f: np.ndarray, g: np.ndarray) -> None:
    """Left-point product germ f_i (g_j - g_i) on every pair i < j."""
    n = len(f)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "v0"])
        for i in range(n - 1):
            for j in range(i + 1, n):
                writer.writerow([i, j, repr(float(f[i] * (g[j] - g[i])))])


def brownian_values(rng: np.random.Generator, level: int, dim: int = 1):
    incs = rng.standard_normal((1 << level, dim)) * math.sqrt(2.0**-level)
    return np.vstack([np.zeros((1, dim)), np.cumsum(incs, axis=0)])


# ---------------------------------------------------------------------------
# output checks


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_path_csv(path: str, level: int, dim: int) -> np.ndarray:
    """A well-formed, finite path CSV on the dyadic grid; returns values."""
    rows = read_csv(path)
    require(rows and rows[0] == ["t"] + [f"v{j}" for j in range(dim)],
            f"{path}: bad header {rows[:1]}")
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    require(data.shape == ((1 << level) + 1, dim + 1),
            f"{path}: shape {data.shape}")
    require(np.all(np.isfinite(data)), f"{path}: non-finite values")
    require(np.max(np.abs(data[:, 0] - grid_times(level))) <= 1e-12,
            f"{path}: times not on the dyadic grid")
    return data[:, 1:]


def check_results_csv(path: str) -> list[list[str]]:
    rows = read_csv(path)
    require(rows and rows[0] == ["key", "statistic", "estimate", "stderr",
                                 "samples"], f"{path}: bad header")
    require(len(rows) > 1, f"{path}: no rows")
    for row in rows[1:]:
        require(len(row) == 5, f"{path}: ragged row {row}")
        for cell in (row[2], row[3]):
            require(cell == "" or math.isfinite(float(cell)),
                    f"{path}: non-finite {row}")
    return rows[1:]


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def same(a, b) -> bool:
    """Equal up to REF_RTOL relative on numbers, exactly elsewhere."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, str) and isinstance(b, str):
        try:
            return same(float(a), float(b))
        except ValueError:
            return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=1e-300)
    return a == b


class Refs:
    """Stored outputs of the default seed, compared to REF_RTOL relative;
    other seeds skip the comparison."""

    def __init__(self, directory: str, seed: int):
        self.directory = directory
        self.active = seed == DEFAULT_SEED

    def match(self, name: str, value) -> None:
        if not self.active:
            return
        path = os.path.join(self.directory, name)
        require(same(value, load_json(path)),
                f"{name}: differs from the stored reference")


# ---------------------------------------------------------------------------
# CLI ops


def cli_call(argv: list[str]) -> dict:
    import besov_rough.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = besov_rough.cli.main(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def check_cli(res: dict) -> str:
    """Exit code 0 and no JSON error line; returns stdout."""
    for line in res["stderr"].splitlines():
        with contextlib.suppress(ValueError):
            obj = json.loads(line)
            require(not (isinstance(obj, dict) and "error" in obj),
                    f"{res['argv'][0]}: error line {line}")
    require(res["rc"] == 0, f"{res['argv'][0]}: exit code {res['rc']}")
    return res["stdout"]


def check_chen(stdout: str) -> None:
    m = re.search(r"chen_residual (\S+)", stdout)
    require(m is not None, f"no chen_residual in {stdout!r}")
    require(float(m.group(1)) <= CHEN_TOL, f"chen residual {m.group(1)}")


def exp_oracle_error(y: np.ndarray, x: np.ndarray, y0: float) -> float:
    """Relative sup error of the solution of dY = Y dX against
    y0 exp(X - X_0)."""
    exact = y0 * np.exp(x - x[0])
    return float(np.max(np.abs(y - exact)) / max(1.0, np.max(np.abs(exact))))


def rough_files(size: dict, seed: int, wd: str, refs: Refs) -> list[Op]:
    from besov_rough import signals
    from besov_rough.grid import UniformGrid

    def join(name):
        return os.path.join(wd, name)

    write_path_csv(join("bm_norm.csv"), size["norm"],
                   brownian_values(stream(seed, "norm"), size["norm"]))
    write_path_csv(join("bm_var.csv"), size["var"],
                   brownian_values(stream(seed, "var"), size["var"]))
    sew_grid = UniformGrid(1.0, size["sew"])
    f = signals.smooth_random(sew_grid, stream(seed, "sew-f")).values[:, 0]
    g = signals.smooth_random(sew_grid, stream(seed, "sew-g")).values[:, 0]
    write_germ_csv(join("germ.csv"), f, g)
    lev = size["ode_cli"]
    drv = signals.smooth_random(UniformGrid(1.0, lev),
                                stream(seed, "ode-driver")).values[:, 0]
    write_path_csv(join("driver.csv"), lev, drv)
    lift_seed = sub_seed(seed, "lift")

    def check_lift(res):
        check_chen(check_cli(res))
        meta = load_json(join("rp2/meta.json"))
        require(meta["N"] == 2 and meta["n"] == 2
                and meta["level"] == size["lift"], f"lift meta {meta}")
        for k in (1, 2):
            require(os.path.getsize(join(f"rp2/{k}.csv")) > 0,
                    f"{k}.csv empty")

    def check_extend(res):
        check_chen(check_cli(res))
        meta = load_json(join("rp3/meta.json"))
        require(meta["N"] == 3, f"extend meta {meta}")
        require(os.path.getsize(join("rp3/3.csv")) > 0, "3.csv empty")

    def check_rde(res):
        check_cli(res)
        sol = check_path_csv(join("sol.csv"), size["lift"], 2)
        report = load_json(join("rde.json"))
        require(all_finite(report) and report["davie_norm"] > 0,
                f"rde report {report}")
        refs.match("rde_sol.json", sol.tolist())
        refs.match("rde_report.json", report)

    def check_norm(res):
        check_cli(res)
        rep = load_json(join("norm.json"))
        require(all_finite(rep) and rep["seminorm"] > 0, f"norm {rep}")

    def check_var(res):
        check_cli(res)
        rep = load_json(join("var.json"))
        require(all_finite(rep) and rep["pvariation"] > 0, f"var {rep}")

    def check_sew(res):
        check_cli(res)
        rep = load_json(join("sew.json"))
        require(all_finite(rep["integral_path"])
                and math.isfinite(rep["remainder_norm"]), "sew output")
        require(len(rep["integral_path"]) == (1 << size["sew"]) + 1,
                "sew integral length")

    def check_ode(res):
        check_cli(res)
        y = check_path_csv(join("ode.csv"), lev, 1)[:, 0]
        err = exp_oracle_error(y, drv, 1.0)
        require(err <= EXP_TOL, f"young-ode exp oracle error {err:.3e}")

    return [
        Op("lift", lambda: cli_call(
            ["lift", "--kind", "bm", "--n", "2", "--level", str(size["lift"]),
             "--seed", str(lift_seed), "--out", join("rp2")]), check_lift),
        Op("extend", lambda: cli_call(
            ["extend", "--input", join("rp2"), "--N", "3",
             "--out", join("rp3")]), check_extend),
        Op("rde", lambda: cli_call(
            ["rde", "--driver", join("rp2"), "--field", "builtin:rotation",
             "--y0", "1.0,0.5", "--out", join("sol.csv"),
             "--report", join("rde.json")]), check_rde),
        Op("norm", lambda: cli_call(
            ["norm", "--input", join("bm_norm.csv"), "--alpha", "0.4",
             "--p", "2", "--q", "inf", "--out", join("norm.json")]),
           check_norm),
        Op("var", lambda: cli_call(
            ["var", "--input", join("bm_var.csv"), "--p", "2.5",
             "--out", join("var.json")]), check_var),
        Op("sew", lambda: cli_call(
            ["sew", "--germ", join("germ.csv"), "--gamma", "2.0",
             "--p2", "inf", "--q2", "inf", "--out", join("sew.json")]),
           check_sew),
        Op("young_ode_cli", lambda: cli_call(
            ["young-ode", "--driver", join("driver.csv"),
             "--field", "builtin:linear", "--y0", "1.0", "--alpha", "0.9",
             "--p", "inf", "--q", "inf", "--out", join("ode.csv")]),
           check_ode),
    ]


# ---------------------------------------------------------------------------
# library ops


A1 = np.array([[0.0, -1.0], [1.0, 0.0]])
A2 = np.array([[1.0, 0.0], [0.0, -1.0]])


def rotation_reference(level: int, y0: np.ndarray) -> np.ndarray:
    """Runge-Kutta (DOP853) solution of dY = (A1 cos t - 2 A2 sin 2t) Y dt at
    the grid nodes, the ODE that the rotation field driven by
    (sin t, cos 2t) reduces to."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return (A1 * math.cos(t) - 2.0 * A2 * math.sin(2.0 * t)) @ y

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-12, t_eval=grid_times(level))
    return sol.y.T


def solvers(size: dict, seed: int, wd: str, refs: Refs) -> list[Op]:
    import besov_rough as br
    from besov_rough import controlled, signals
    from besov_rough.norms import INF, BesovParams
    from besov_rough.young import linear_field, rotation_field, \
        scalar_linear_field

    def rotation_lift(level):
        grid = br.UniformGrid(1.0, level)
        t = grid.times()
        driver = br.GridPath(grid, np.column_stack([np.sin(t), np.cos(2 * t)]))
        return br.geometric_lift(driver, 2, BesovParams(0.5, INF, INF))

    rng = stream(seed, "solvers")
    y0 = np.array([1.0, 0.5]) + rng.uniform(-0.25, 0.25, size=2)
    lift_probe = rotation_lift(size["probe"])
    ode_grid = br.UniformGrid(1.0, size["young_ode"])
    ode_driver = signals.smooth_random(ode_grid, stream(seed, "young-ode"))
    # f = sin(w t + phi): the setting of the sewing-rate criterion, where
    # the certificate slope is -1 at every seed.
    int_grid = br.UniformGrid(1.0, size["young_int"])
    w, phi = rng.uniform(0.8, 1.25), rng.uniform(0.0, 2 * math.pi)
    f = br.GridPath(int_grid, np.sin(w * int_grid.times() + phi))
    young = BesovParams(0.9, INF, INF)
    eps = 1e-2
    field = rotation_field()
    ratios = {}

    def run_rde():
        # the lift is part of the op, so that geometric_lift is timed
        return br.rde_solve(field, rotation_lift(size["rde"]), y0)

    def check_rde(sol):
        ref = rotation_reference(size["rde"], y0)
        err = float(np.max(np.abs(sol.path.values - ref)))
        require(err <= RK4_TOL, f"rde_solve RK4 error {err:.3e}")

    def probe(kind):
        def run():
            if kind == "y0":
                return controlled.rde_stability_probe(field, field, lift_probe,
                                              lift_probe, y0,
                                              y0 + np.array([eps, 0.0]))
            if kind == "dilation":
                return controlled.rde_stability_probe(
                    field, field, lift_probe, br.dilate(lift_probe, 1 + eps),
                    y0, y0)
            scaled = linear_field([(1 + eps) * a for a in (A1, A2)])
            return controlled.rde_stability_probe(field, scaled, lift_probe,
                                          lift_probe, y0, y0)

        def check(out):
            r = out["ratio"]
            require(math.isfinite(r) and r > 0, f"probe {kind} ratio {r}")
            ratios[kind] = r
            if len(ratios) == 3:
                vals = list(ratios.values())
                spread = max(vals) / min(vals)
                require(spread < PROBE_SPREAD, f"probe spread {spread:.3f}")
                refs.match("probe_ratios.json", ratios)

        return run, check

    def run_ode():
        return br.young_ode_solve(scalar_linear_field(), ode_driver, 1.0,
                                  young)

    def check_ode(sol):
        err = exp_oracle_error(sol.path.values[:, 0],
                               ode_driver.values[:, 0], 1.0)
        require(err <= EXP_TOL, f"young_ode exp oracle error {err:.3e}")

    def run_integral():
        reg = br.YoungRegime(young, young)
        out = br.young_integral(f, f, reg, diagnostics=True)
        return out, br.rate_certificate(out.sewing,
                                        n_range=size["slope_range"])

    def check_integral(res):
        out, cert = res
        fv = f.values[:, 0]
        exact = 0.5 * (fv[-1] ** 2 - fv[0] ** 2)
        err = abs(float(out.integral.values[-1, 0]) - exact)
        # the left-point sum misses by (1/2) sum (df)^2 <= w^2 h / 2
        require(err <= w**2 * int_grid.mesh, f"int f df error {err:.3e}")
        require(abs(cert["slope"] + 1.0) <= SLOPE_TOL,
                f"sewing slope {cert['slope']:.3f}")

    ops = [Op("rde_solve", run_rde, check_rde)]
    for kind in ("y0", "dilation", "field"):
        ops.append(Op(f"probe_{kind}", *probe(kind)))
    ops.append(Op("young_ode", run_ode, check_ode))
    ops.append(Op("young_integral", run_integral, check_integral))
    return ops


# ---------------------------------------------------------------------------
# Monte Carlo ops


def mc_stats(size: dict, seed: int, wd: str, refs: Refs) -> list[Op]:
    configs = {
        "bm_ynp": {"experiment": "bm-ynp", "seed": sub_seed(seed, "bm-ynp"),
                   "samples": size["bm"]["samples"], "p": 4.0, "dim": 2,
                   "level": size["bm"]["level"], "ns": size["bm"]["ns"]},
        "pprod_bdg": {"experiment": "pprod-bdg",
                      "seed": sub_seed(seed, "pprod-bdg"),
                      "samples": size["pprod"]["samples"],
                      "lengths": size["pprod"]["lengths"]},
        "fbm_ynp": {"experiment": "fbm-ynp", "seed": sub_seed(seed, "fbm-ynp"),
                    "samples": size["fbm"]["samples"], "H": 0.4, "dim": 2,
                    "p": 4.0, "level": size["fbm"]["level"],
                    "ns": size["fbm"]["ns"]},
    }
    ops = []
    for name, cfg in configs.items():
        cfg_path = os.path.join(wd, f"{name}.json")
        out_path = os.path.join(wd, f"{name}.csv")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)

        def run(cfg_path=cfg_path, out_path=out_path):
            return cli_call(["mc", "--config", cfg_path, "--out", out_path])

        def check(res, name=name, out_path=out_path):
            check_cli(res)
            rows = check_results_csv(out_path)
            if name == "bm_ynp":
                check_bm_means(rows)
            if name == "pprod_bdg":
                require(all(float(r[2]) > 0 for r in rows),
                        "pprod ratios must be positive")
            refs.match(f"{name}.json", rows)

        ops.append(Op(f"mc_{name}", run, check))
    return ops


def check_bm_means(rows) -> None:
    """Each window mean within Z_MAX combined standard errors of the exact
    one-window oracle (a correct program misses this with probability
    below 1e-6)."""
    by_key = {}
    for key, stat, est, se, _ in rows:
        by_key.setdefault(key, {})[stat] = (float(est), float(se or "nan"))
    for key, stats in by_key.items():
        if key == "all":
            continue
        (m, se), (om, ose) = stats["mean"], stats["oracle_mean_window"]
        z = abs(m - om) / math.hypot(se, ose)
        require(z <= Z_MAX, f"bm-ynp n={key}: z = {z:.2f}")


WORKLOADS = {"rough-files": rough_files, "solvers": solvers,
             "mc-stats": mc_stats}


def mc_samples(size: dict) -> int:
    """Monte Carlo samples drawn by the mc ops of one pass, oracle draws
    excluded."""
    return (size["bm"]["samples"]
            + size["pprod"]["samples"] * len(size["pprod"]["lengths"])
            + size["fbm"]["samples"])
