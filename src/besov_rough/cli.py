"""Command-line interface: norms, variation, sewing, Young/rough solvers,
lifts, Monte Carlo experiments, and the acceptance-suite runner.

Exit codes: 0 success, 1 I/O or format error, 2 regime violation,
3 numerical failure (non-contraction), 4 an acceptance criterion failed.
Errors are emitted as one JSON object on stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from ._rng import rng_for
from .errors import NonContractionError, RegimeError
from .grid import (
    GridFormatError,
    GridPath,
    UniformGrid,
    load_germ_csv,
    load_path_csv,
    save_field_csv,
    save_path_csv,
)
from .norms import (
    INF,
    BesovParams,
    besov_level_table,
    besov_seminorm,
    oscillation_variation,
    pvariation,
)
from .sewing import SewingInput, rate_certificate, sew
from .young import (
    VectorField,
    linear_field,
    rotation_field,
    scalar_linear_field,
    sigmoid_field,
    young_ode_solve,
)
from .rough import (
    MAX_DIM,
    MAX_LEVEL,
    RoughPath,
    _fbm_rows,
    brownian_lift,
    canonical_lift,
    chen_residual,
    geometric_lift,
    lyons_extend,
)
from .controlled import (
    ControlledPath,
    controlled_norm,
    davie_residual,
    rde_solve,
    rough_integral,
)
from .stochlab import (_KINDS, bm_besov_statistic, fbm_besov_statistic,
                       pprod_bdg_experiment)
from .acceptance import CRITERIA, run_suite


# The largest grid the CLI builds, set by memory: `lift --level`, the MC
# `level` and the MC `lengths` (at most 2^MAX_GRID_LEVEL) stop here.  At this
# level the O(n^2) steps (the one n x n fBm factor of `lift --kind fbm` and
# `fbm-ynp`, built in O(n^2) time; a `pprod-bdg` paraproduct) and the
# n = N = 4 signature of `lift --kind bm` each peak below 1 GB.
MAX_GRID_LEVEL = 12


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise GridFormatError(message)


def _fnum(x: str) -> float:
    value = float(x)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"need a number or inf, got {x}")
    return value


def _finite(x: str) -> float:
    value = float(x)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {x}")
    return value


def _grid_level(x: str) -> int:
    level = int(x)
    if not 1 <= level <= MAX_GRID_LEVEL:
        raise argparse.ArgumentTypeError(
            f"grid level must be in 1..{MAX_GRID_LEVEL}, got {level}")
    return level


def _positive_float(x: str) -> float:
    value = float(x)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"need a finite positive number, got {x}")
    return value


def _vector(x: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in x.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need comma-separated numbers, got {x!r}") from None
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"non-finite entry in {x!r}")
    return values


def _has_type(value, hint) -> bool:
    """JSON value check against a config annotation: floats must be finite,
    ints and bools are not interchangeable, lists are checked per item."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


@dataclass
class ExperimentConfig:
    """Monte Carlo experiment configuration; JSON round-trips losslessly.
    Unknown keys, wrongly typed values and non-finite numbers are rejected;
    `check_values` rejects values no experiment can run with."""

    experiment: str
    seed: int = 2024
    samples: int = 200
    level: int = 10
    p: float = 4.0
    ns: list[int] = field(default_factory=lambda: [4, 6, 8])
    H: float = 0.4
    dim: int = 2
    gamma0: float = 0.45
    gamma1: float = 0.6
    p_tuple: list[float] = field(default_factory=lambda: [8.0, 8.0, 4.0])
    q_tuple: list[float] = field(default_factory=lambda: [8.0, 8.0, 4.0])
    r_tuple: list[float] = field(default_factory=lambda: [8.0, 8.0, 4.0])
    lengths: list[int] = field(default_factory=lambda: [128, 256, 512])
    kind: str = "gaussian"
    coupled: bool = False

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise GridFormatError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise GridFormatError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise GridFormatError("config must name an 'experiment'")
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            if not _has_type(value, hints[key]):
                raise GridFormatError(
                    f"config key {key!r} must be a finite {hints[key]},"
                    f" got {value!r}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def check_values(self) -> None:
        """Every key, used by the experiment or not, must hold a value that
        gives finite rows (not a traceback or a silent nan)."""
        for key, ok, need in [
            ("samples", self.samples >= 2, "an integer >= 2"),
            ("p", self.p > 0, "a number > 0"),
            ("dim", 1 <= self.dim <= MAX_DIM, f"an integer in 1..{MAX_DIM}"),
            ("level", 1 <= self.level <= MAX_GRID_LEVEL,
             f"an integer in 1..{MAX_GRID_LEVEL}"),
            ("ns", self.ns and len(set(self.ns)) == len(self.ns)
             and all(1 <= n <= self.level for n in self.ns),
             f"a nonempty list of distinct integers in 1..level = {self.level}"),
            ("lengths", self.lengths and all(
                2 <= n <= 1 << MAX_GRID_LEVEL and not n & (n - 1)
                for n in self.lengths),
             f"a nonempty list of powers of two in 2..{1 << MAX_GRID_LEVEL}"),
            *((key, len(t) == 3 and min(t) > 0, "a list of three numbers > 0")
              for key, t in [("p_tuple", self.p_tuple),
                             ("q_tuple", self.q_tuple),
                             ("r_tuple", self.r_tuple)]),
            ("kind", self.kind in _KINDS, f"one of {', '.join(_KINDS)}")]:
            if not ok:
                raise GridFormatError(f"config key {key!r} must be {need},"
                                      f" got {getattr(self, key)!r}")
        if self.p * max(self.ns) * max(self.H, 0.5) >= 1024:
            raise GridFormatError(
                "config key 'p' must keep p * max(ns) * max(H, 0.5) below"
                f" 1024, where the window scale 2^(n p H) overflows; got"
                f" {self.p!r}")


def _params_from_args(args) -> BesovParams:
    return BesovParams(args.alpha, args.p, args.q)


def _field_from_spec(spec: str, m: int, n: int) -> VectorField:
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name == "linear":
            if n != 1 or m != 1:
                raise RegimeError(
                    "builtin:linear is the scalar dY = Y dX; use a coeffs.json"
                    " file for matrix systems"
                )
            return scalar_linear_field()
        if name == "rotation":
            if m != 2 or n != 2:
                raise RegimeError("builtin:rotation needs a 2-d state and driver")
            return rotation_field()
        if name in ("sigmoid", "sigmoid-saturated"):
            return sigmoid_field(m, n)
        raise GridFormatError(f"unknown builtin field {name!r}")
    with open(spec) as fh:
        data = json.load(fh)
    linear = isinstance(data, dict) and data.get("kind") == "linear"
    mats = data.get("matrices") if linear else None
    ok = _has_type(mats, list[list[list[float]]]) and mats
    size = len(mats[0]) if ok else 0
    if size == 0 or any(len(a) != size or any(len(row) != size for row in a)
                        for a in mats):
        raise GridFormatError(
            f"{spec}: coeffs.json must carry kind='linear' and 'matrices', a"
            " nonempty list of square matrices of one size with finite entries")
    if len(mats) != n or size != m:
        raise RegimeError(
            f"{spec}: need {n} matrices of size {m}x{m} for a {m}-d state and"
            f" {n}-d driver, got {len(mats)} of size {size}")
    return linear_field([np.asarray(a, dtype=float) for a in mats])


# ---------------------------------------------------------------------------
# rough path directory format
#
# A directory holds meta.json and one k.csv per level k = 1..N.  In the
# "signature" layout, k.csv is a path CSV whose row t holds X^(k)_{0,t}; the
# other increments follow from Chen's relation X_st = X_0s^{-1} (x) X_0t, so
# the files are O(n).  Signature-backed paths are written this way.  In the
# "pairwise" layout, k.csv holds rows i,j,c0,... for every pair i < j.
# Explicit-field paths are written this way, because their levels need not
# satisfy Chen's relation (a fault injected into one must survive a save).
# A meta.json without a "format" key is pairwise.

_FORMATS = ("signature", "pairwise")


def save_rough_dir(path: str, X: RoughPath) -> None:
    os.makedirs(path, exist_ok=True)
    signature = X._sig is not None
    alpha, p, q = X.params.as_tuple
    meta = {
        "format": "signature" if signature else "pairwise",
        "n": X.n,
        "N": X.depth,
        "level": X.grid.level,
        "horizon": X.grid.horizon,
        "alpha": alpha,
        "p": None if p == INF else p,
        "q": None if q == INF else q,
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    nn = X.grid.n
    if signature:
        prefix = X.pairs_levels(np.zeros(nn - 1, dtype=np.intp),
                                np.arange(1, nn))
        for k in range(1, X.depth + 1):
            rows = np.vstack([np.zeros((1, X.n**k)), prefix[k]])
            save_path_csv(os.path.join(path, f"{k}.csv"), GridPath(X.grid, rows))
        return
    for k in range(1, X.depth + 1):
        save_field_csv(os.path.join(path, f"{k}.csv"), X.level(k))


def _read_meta(path: str) -> dict:
    """meta.json of a rough-path directory, with every key type-checked."""
    fname = os.path.join(path, "meta.json")
    try:
        with open(fname) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise GridFormatError(f"{path}: {exc}") from None
    if not isinstance(meta, dict):
        raise GridFormatError(f"{fname}: expected a JSON object")
    checks = {
        "n": (lambda v: _has_type(v, int) and 1 <= v <= MAX_DIM,
              f"an integer in 1..{MAX_DIM}"),
        "N": (lambda v: _has_type(v, int) and 1 <= v <= MAX_LEVEL,
              f"an integer in 1..{MAX_LEVEL}"),
        "level": (lambda v: _has_type(v, int) and v >= 0,
                  "a nonnegative integer"),
        "horizon": (lambda v: _has_type(v, float) and v > 0,
                    "a finite positive number"),
        "alpha": (lambda v: _has_type(v, float), "a finite number"),
        "p": (lambda v: v is None or _has_type(v, float),
              "a finite number or null"),
        "q": (lambda v: v is None or _has_type(v, float),
              "a finite number or null"),
    }
    for key, (ok, what) in checks.items():
        if key not in meta:
            raise GridFormatError(f"{fname}: missing key {key!r}")
        if not ok(meta[key]):
            raise GridFormatError(
                f"{fname}: {key!r} must be {what}, got {meta[key]!r}")
    meta.setdefault("format", "pairwise")
    if meta["format"] not in _FORMATS:
        raise GridFormatError(
            f"{fname}: unknown format {meta['format']!r}; known: {_FORMATS}")
    return meta


def load_rough_dir(path: str) -> RoughPath:
    meta = _read_meta(path)
    grid = UniformGrid(meta["horizon"], meta["level"])
    params = BesovParams(
        meta["alpha"],
        INF if meta["p"] is None else meta["p"],
        INF if meta["q"] is None else meta["q"],
    )
    n, depth = meta["n"], meta["N"]
    if meta["format"] == "signature":
        sig = [np.ones((grid.n, 1))]
        for k in range(1, depth + 1):
            fname = os.path.join(path, f"{k}.csv")
            prefix = load_path_csv(fname)
            if prefix.grid != grid or prefix.dim != n**k:
                raise GridFormatError(f"{fname}: level shape mismatch")
            if np.any(prefix.values[0] != 0.0):
                raise GridFormatError(
                    f"{fname}: first row must be zero (X_00 is the identity)")
            sig.append(prefix.values)
        return RoughPath.from_signature(grid, params, sig)
    levels = []
    for k in range(1, depth + 1):
        fname = os.path.join(path, f"{k}.csv")
        fieldk = load_germ_csv(fname, horizon=meta["horizon"])
        if fieldk.grid != grid or fieldk.dim != n**k:
            raise GridFormatError(f"{fname}: level shape mismatch")
        levels.append(fieldk)
    return RoughPath.from_fields(grid, params, levels)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args) -> int:
    path = load_path_csv(args.input)
    params = _params_from_args(args)
    value = besov_seminorm(path, *params.as_tuple, form=args.form)
    report = {
        "seminorm": value,
        "levels": besov_level_table(path, *params.as_tuple),
        "params": {"alpha": args.alpha,
                   "p": None if args.p == INF else args.p,
                   "q": None if args.q == INF else args.q,
                   "form": args.form},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(f"seminorm {value:.12g}")
    return 0


def _cmd_var(args) -> int:
    path = load_path_csv(args.input)
    if args.oscillation:
        if path.dim != 1:
            raise GridFormatError(
                f"--oscillation needs a scalar path; got {path.dim} columns")
        value = oscillation_variation(path, args.p)
        kind = "oscillation_variation"
    else:
        value = pvariation(path, args.p)
        kind = "pvariation"
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({kind: value, "p": args.p}, fh, indent=2)
    print(f"{kind} {value:.12g}")
    return 0


def _cmd_sew(args) -> int:
    germ = load_germ_csv(args.germ)
    inp = SewingInput(germ=germ, gamma=args.gamma, p2=args.p2, q2=args.q2,
                      endpoint=args.endpoint)
    result = sew(inp, diagnostics=True)
    try:
        slope = rate_certificate(result)["slope"]
    except ValueError:  # fewer than two diagnostic levels carry a rate
        slope = None
    out = {
        "integral_path": [list(map(float, row))
                          for row in result.integral.values],
        "remainder_norm": result.remainder_norm,
        "levels": result.levels,
        "slope": None if slope == -INF else slope,
        "expected_slope": -(inp.gamma - inp.critical_exponent),
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"remainder_norm {result.remainder_norm:.12g}")
    return 0


def _cmd_young_ode(args) -> int:
    driver = load_path_csv(args.driver)
    fieldspec = _field_from_spec(args.field, len(args.y0), driver.dim)
    params = _params_from_args(args)
    sol = young_ode_solve(fieldspec, driver, args.y0, params)
    save_path_csv(args.out, sol.path)
    print(f"solved in {sum(sol.iterations)} sweeps over"
          f" {len(sol.subintervals)} subintervals")
    return 0


def _cmd_lift(args) -> int:
    params = BesovParams(args.alpha, args.p, args.q)
    grid = UniformGrid(args.horizon, args.level)
    if args.kind == "bm":
        if args.N < 2:
            raise GridFormatError("Brownian lifts start at level 2")
        if args.flavor == "geometric":
            raise GridFormatError(
                "Brownian lifts take --flavor ito or stratonovich")
        X = brownian_lift(args.n, grid, args.seed, flavor=args.flavor,
                          params=params)
    elif args.kind == "fbm":
        rng = rng_for(args.seed, "fbm-lift")
        z = rng.standard_normal((args.n, grid.n_cells))  # one path per row
        path = GridPath(grid, _fbm_rows(args.H, grid, z).T)
        X = canonical_lift(path, args.N, params)
    elif args.kind == "canonical":
        if not args.input:
            raise GridFormatError("--kind canonical requires --input path.csv")
        path = load_path_csv(args.input)
        if path.dim > MAX_DIM:
            raise GridFormatError(
                f"lifts take at most {MAX_DIM} path columns; got {path.dim}")
        lift = geometric_lift if args.flavor == "geometric" else canonical_lift
        X = lift(path, args.N, params)
    else:
        raise GridFormatError(f"unknown lift kind {args.kind!r}")
    if args.kind == "bm" and args.N != 2:
        X = lyons_extend(X, args.N)
    save_rough_dir(args.out, X)
    print(f"chen_residual {chen_residual(X):.3e}")
    return 0


def _cmd_extend(args) -> int:
    X = load_rough_dir(args.input)
    Y = lyons_extend(X, args.N)
    save_rough_dir(args.out, Y)
    print(f"extended to level {Y.depth}; chen_residual {chen_residual(Y):.3e}")
    return 0


def _cmd_integrate(args) -> int:
    X = load_rough_dir(args.driver)
    y = load_path_csv(args.y)
    yp = load_path_csv(args.yprime)
    if y.grid != X.grid or yp.grid != X.grid:
        raise GridFormatError(
            "--y and --yprime must be sampled on the driver's grid")
    n = X.n
    if y.dim % n or yp.dim != y.dim * n:
        raise GridFormatError(
            f"integrand dims must be (m*{n}) and (m*{n}*{n}); got"
            f" {y.dim} and {yp.dim}"
        )
    m = y.dim // n
    cp = ControlledPath(
        X,
        y.values.reshape(X.grid.n, m, n),
        yp.values.reshape(X.grid.n, m, n, n),
    )
    z, rep = rough_integral(cp, report=True)
    save_path_csv(args.out, z.y_path())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(rep, fh, indent=2)
    print(f"remainder_norm {rep['remainder_norm']:.12g}")
    return 0


def _cmd_rde(args) -> int:
    X = load_rough_dir(args.driver)
    fieldspec = _field_from_spec(args.field, len(args.y0), X.n)
    sol = rde_solve(fieldspec, X, args.y0)
    save_path_csv(args.out, sol.path)
    dav = davie_residual(sol.controlled, fieldspec)
    report = {
        "iterations": sol.iterations,
        "subinterval_boundaries": [list(map(int, s)) for s in sol.subintervals],
        "controlled_norm": controlled_norm(sol.controlled),
        "davie_slope": None if dav["slope"] == INF else dav["slope"],
        "davie_norm": dav["norm"],
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
    print(f"davie_norm {dav['norm']:.12g}")
    return 0


def _write_results_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "statistic", "estimate", "stderr", "samples"])
        for row in rows:
            writer.writerow(row)


def _cmd_mc(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if args.experiment:
        cfg.experiment = args.experiment
    cfg.check_values()
    rows = []
    if cfg.experiment == "bm-ynp":
        rep = bm_besov_statistic(cfg.p, cfg.ns, cfg.level, cfg.samples, cfg.seed,
                                 dim=cfg.dim)
        for n, row in sorted(rep["per_n"].items()):
            rows.append([n, "mean", repr(row["mean"]), repr(row["stderr"]),
                         row["samples"]])
            rows.append([n, "variance", repr(row["variance"]), "",
                         row["samples"]])
            rows.append([n, "oracle_mean_window", repr(row["oracle_mean_window"]),
                         repr(row["oracle_stderr_window"]), row["samples"]])
        rows.append(["all", "variance_log2_slope", repr(rep["variance_slope"]),
                     "", cfg.samples])
    elif cfg.experiment == "fbm-ynp":
        rep = fbm_besov_statistic(cfg.H, cfg.p, cfg.ns, cfg.level, cfg.samples,
                                  cfg.seed, dim=cfg.dim)
        for n, row in sorted(rep["per_n"].items()):
            rows.append([n, "mean", repr(row["mean"]), repr(row["stderr"]),
                         row["samples"]])
            rows.append([n, "variance", repr(row["variance"]), "",
                         row["samples"]])
    elif cfg.experiment == "pprod-bdg":
        rep = pprod_bdg_experiment(
            cfg.gamma0, cfg.gamma1,
            tuple(cfg.p_tuple), tuple(cfg.q_tuple), tuple(cfg.r_tuple),
            cfg.lengths, cfg.samples, cfg.seed, kind=cfg.kind,
            coupled=cfg.coupled,
        )
        for length, row in sorted(rep["lengths"].items()):
            for key in ("ratio_p50", "ratio_p90", "ratio_p99", "ratio_mean",
                        "bdg_p50", "bdg_p99", "lr_ratio"):
                rows.append([length, key, repr(row[key]), "", row["samples"]])
    else:
        raise GridFormatError(f"unknown experiment {cfg.experiment!r}")
    _write_results_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_accept(args) -> int:
    ids = set(args.ids.split(",")) if args.ids else None
    valid = [cid for cid, _, _ in CRITERIA]
    if ids and not ids <= set(valid):
        raise GridFormatError(
            f"unknown criterion ids {sorted(ids - set(valid))};"
            f" valid ids: {','.join(valid)}")
    results = run_suite(ids=ids)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, default=str)
    return 0 if all(r["passed"] for r in results) else 4


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="besov-rough", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"besov-rough {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norm", help="one-parameter Besov seminorm of a path")
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--p", type=_fnum, required=True)
    sp.add_argument("--q", type=_fnum, required=True)
    sp.add_argument("--form", choices=("dyadic", "integral"), default="dyadic")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_norm)

    sp = sub.add_parser("var", help="p-variation / oscillation variation")
    sp.add_argument("--input", required=True)
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--oscillation", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_var)

    sp = sub.add_parser("sew", help="sew a germ CSV into integral + remainder")
    sp.add_argument("--germ", required=True)
    sp.add_argument("--gamma", type=_finite, required=True)
    sp.add_argument("--p2", type=_fnum, required=True)
    sp.add_argument("--q2", type=_fnum, default=INF)
    sp.add_argument("--endpoint", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_sew)

    sp = sub.add_parser("young-ode", help="solve dY = F(Y) dX in the Young regime")
    sp.add_argument("--driver", required=True)
    sp.add_argument("--field", required=True,
                    help="builtin:<linear|rotation|sigmoid> or coeffs.json")
    sp.add_argument("--y0", type=_vector, required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--p", type=_fnum, required=True)
    sp.add_argument("--q", type=_fnum, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_young_ode)

    sp = sub.add_parser("lift", help="construct a rough path lift")
    sp.add_argument("--kind", choices=("bm", "fbm", "canonical"), required=True)
    sp.add_argument("--H", type=_finite, default=0.4)
    sp.add_argument("--n", type=int, default=2, choices=range(1, MAX_DIM + 1))
    sp.add_argument("--N", type=int, default=2,
                    choices=range(1, MAX_LEVEL + 1))
    sp.add_argument("--level", type=_grid_level, default=10)
    sp.add_argument("--horizon", type=_positive_float, default=1.0)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--flavor", choices=("ito", "stratonovich", "geometric"),
                    default="ito")
    sp.add_argument("--alpha", type=_finite, default=0.45)
    sp.add_argument("--p", type=_fnum, default=32.0)
    sp.add_argument("--q", type=_fnum, default=INF)
    sp.add_argument("--input")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_lift)

    sp = sub.add_parser("extend", help="Lyons extension of a stored rough path")
    sp.add_argument("--input", required=True)
    sp.add_argument("--N", type=int, required=True,
                    choices=range(1, MAX_LEVEL + 1))
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_extend)

    sp = sub.add_parser("integrate", help="rough integral of a controlled pair")
    sp.add_argument("--driver", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--yprime", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")
    sp.set_defaults(fn=_cmd_integrate)

    sp = sub.add_parser("rde", help="solve a level-2 rough differential equation")
    sp.add_argument("--driver", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--y0", type=_vector, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")
    sp.set_defaults(fn=_cmd_rde)

    sp = sub.add_parser("mc", help="Monte Carlo experiments")
    sp.add_argument("--experiment",
                    choices=("bm-ynp", "fbm-ynp", "pprod-bdg"),
                    help="optional override of the config's experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("accept", help="run the acceptance suite")
    sp.add_argument("--ids", help="comma-separated criterion ids, e.g. 01,07")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_accept)

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (GridFormatError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        _emit_error("io", exc)
        return 1
    except RegimeError as exc:
        _emit_error("regime", exc)
        return 2
    except NonContractionError as exc:
        _emit_error("numerical", exc)
        return 3
    except MemoryError as exc:
        _emit_error("memory", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
