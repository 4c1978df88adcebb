"""Command-line interface: norms, variation, sewing, Young/rough solvers,
lifts, Monte Carlo experiments, and the acceptance-suite runner.

Exit codes: 0 success, 1 I/O or format error, 2 regime violation,
3 numerical failure (non-contraction), 4 an acceptance criterion failed.
Errors are emitted as one JSON object on stderr.

Every command but `accept` returns its outputs and its stdout line, and
`main` checks every float in them before it writes or prints anything: a
non-finite one, or an OverflowError, exits 1 and writes nothing.  A value
with no finite meaning is written as an empty cell or `null`.
"""
from __future__ import annotations

import argparse
import csv
import functools
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
    _pair_rows,
    _write_columns,
    load_germ_csv,
    load_path_csv,
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


# The largest grid the CLI builds, set by memory: `lift --level`, the MC
# `level` and the MC `lengths` (at most 2^MAX_GRID_LEVEL) stop here.  At this
# level the one n x n fBm factor of `lift --kind fbm` and `fbm-ynp` (built in
# O(n^2) time) and the n = N = 4 signature of `lift --kind bm` each peak
# below 1 GB; a `pprod-bdg` length of 2^12 takes O(n^2) time, O(n) memory.
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
        if name == "sigmoid":
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
# meta.json with "format": "signature" and, per level k = 1..N, a path CSV
# k.csv whose row t holds X^(k)_{0,t} (Chen's relation gives the rest), plus
# a k.pairs.csv of rows i,j,c0,... for a level's explicit pairs.  A pair read
# is kept when its value differs in any bit from its Chen value.


def save_rough_dir(path: str, X: RoughPath) -> None:
    os.makedirs(path, exist_ok=True)
    alpha, p, q = X.params.as_tuple
    meta = {
        "format": "signature",
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
    prefix = X.pairs_levels(np.zeros(nn - 1, dtype=np.intp), np.arange(1, nn))
    for k in range(1, X.depth + 1):
        save_path_csv(os.path.join(path, f"{k}.csv"), GridPath._from_planes(
            X.grid, np.hstack([np.zeros((X.n**k, 1)), prefix[k].T])))
        fname = os.path.join(path, f"{k}.pairs.csv")
        if k in X._pairs:
            keys, values = X._pairs[k]
            _write_columns(fname, ["i", "j"] + [f"c{c}" for c in range(X.n**k)],
                           [*np.divmod(keys, nn), *values.T])
        elif os.path.exists(fname):
            os.remove(fname)  # left by an earlier save to this directory


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
        "format": (lambda v: v == "signature",
                   '"signature" (the only layout read; run `lift` again to'
                   " rewrite a directory in an older one)"),
        "n": (lambda v: _has_type(v, int) and 1 <= v <= MAX_DIM,
              f"an integer in 1..{MAX_DIM}"),
        "N": (lambda v: _has_type(v, int) and 1 <= v <= MAX_LEVEL,
              f"an integer in 1..{MAX_LEVEL}"),
        # 2^30 + 1 nodes keep pair keys' node indices below 2^31
        "level": (lambda v: _has_type(v, int) and 0 <= v <= 30,
                  "an integer in 0..30"),
        "horizon": (lambda v: _has_type(v, float) and v > 0,
                    "a finite positive number"),
        "alpha": (lambda v: _has_type(v, float), "a finite number"),
        "p": (lambda v: v is None or _has_type(v, float),
              "a finite number or null"),
        "q": (lambda v: v is None or _has_type(v, float),
              "a finite number or null"),
    }
    for key, (ok, what) in checks.items():
        if key not in meta or not ok(meta[key]):
            got = f"got {meta[key]!r}" if key in meta else "it is missing"
            raise GridFormatError(f"{fname}: {key!r} must be {what}; {got}")
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
    sig, pairs = [], {}  # level 0 is sized once the files confirm the grid
    for k in range(1, depth + 1):
        fname = os.path.join(path, f"{k}.csv")
        prefix = load_path_csv(fname, magnitudes=(k == 1))
        if prefix.grid != grid or prefix.dim != n**k:
            raise GridFormatError(f"{fname}: level shape mismatch")
        if np.any(prefix.planes[:, 0] != 0.0):
            raise GridFormatError(
                f"{fname}: first row must be zero (X_00 is the identity)")
        sig.append(prefix.planes)
        fname = os.path.join(path, f"{k}.pairs.csv")
        if os.path.exists(fname):
            pairs[k] = fname, *_pair_rows(fname, grid.n, n**k)[1:]
    X = Y = RoughPath(grid, params, [np.ones((1, grid.n))] + sig)
    for k, (fname, keys, values) in pairs.items():
        ii, jj = np.divmod(keys, grid.n)
        # a stored pair equal in every bit to its Chen value is no defect
        chen = X.level(k).pairs(ii, jj).view(np.int64)
        keep = (values.view(np.int64) != chen).any(axis=1)
        try:
            Y = Y.with_pairs(k, ii[keep], jj[keep], values[keep])
        except ValueError as exc:
            raise GridFormatError(f"{fname}: {exc}") from None
    return Y


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args):
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
    return [(args.out, report)], f"seminorm {value:.12g}"


def _cmd_var(args):
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
    return [(args.out, {kind: value, "p": args.p})], f"{kind} {value:.12g}"


def _cmd_sew(args):
    germ = load_germ_csv(args.germ)
    inp = SewingInput(germ=germ, gamma=args.gamma, p2=args.p2, q2=args.q2,
                      endpoint=args.endpoint)
    result = sew(inp, diagnostics=True)
    try:
        slope = rate_certificate(result)["slope"]
    except ValueError:  # fewer than two diagnostic levels carry a rate
        slope = None
    out = {
        "integral_path": result.integral.values.tolist(),
        "remainder_norm": result.remainder_norm,
        "levels": result.levels,
        "slope": None if slope == -INF else slope,
        "expected_slope": -(inp.gamma - inp.critical_exponent),
    }
    return [(args.out, out)], f"remainder_norm {result.remainder_norm:.12g}"


def _cmd_young_ode(args):
    driver = load_path_csv(args.driver)
    fieldspec = _field_from_spec(args.field, len(args.y0), driver.dim)
    params = _params_from_args(args)
    sol = young_ode_solve(fieldspec, driver, args.y0, params)
    return [(args.out, sol.path)], (f"solved in {sum(sol.iterations)} sweeps"
                                    f" over {len(sol.subintervals)} subintervals")


# the --flavor values each lift kind uses; "ito" is the default for all
_FLAVORS = {"bm": ("ito", "stratonovich"), "fbm": ("ito",),
            "canonical": ("ito", "geometric")}


def _cmd_lift(args):
    params = BesovParams(args.alpha, args.p, args.q)
    grid = UniformGrid(args.horizon, args.level)
    if args.flavor not in _FLAVORS[args.kind]:
        raise GridFormatError(f"--kind {args.kind} takes --flavor"
                              f" {' or '.join(_FLAVORS[args.kind])}")
    if args.kind == "bm":
        if args.N < 2:
            raise GridFormatError("Brownian lifts start at level 2")
        X = brownian_lift(args.n, grid, args.seed, flavor=args.flavor,
                          params=params)
    elif args.kind == "fbm":
        rng = rng_for(args.seed, "fbm-lift")
        z = rng.standard_normal((args.n, grid.n_cells))  # one path per row
        path = GridPath._from_planes(grid, _fbm_rows(args.H, grid, z))
        X = canonical_lift(path, args.N, params)
    else:  # canonical
        if not args.input:
            raise GridFormatError("--kind canonical requires --input path.csv")
        path = load_path_csv(args.input)
        if path.dim > MAX_DIM:
            raise GridFormatError(
                f"lifts take at most {MAX_DIM} path columns; got {path.dim}")
        lift = geometric_lift if args.flavor == "geometric" else canonical_lift
        X = lift(path, args.N, params)
    if args.kind == "bm" and args.N != 2:
        X = lyons_extend(X, args.N)
    residual = chen_residual(X)
    return ([(args.out, X), (None, {"chen_residual": residual})],
            f"chen_residual {residual:.3e}")


def _cmd_extend(args):
    X = load_rough_dir(args.input)
    if args.N < X.depth:
        raise GridFormatError(
            f"--N {args.N} is below the input's depth {X.depth}")
    Y = lyons_extend(X, args.N)
    residual = chen_residual(Y)
    return ([(args.out, Y), (None, {"chen_residual": residual})],
            f"extended to level {Y.depth}; chen_residual {residual:.3e}")


def _cmd_integrate(args):
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
    cp = ControlledPath(X, y.planes.reshape(m, n, -1),
                        yp.planes.reshape(m, n, n, -1))
    z, rep = rough_integral(cp, report=True)
    return ([(args.out, z.y_path()), (args.report, rep)],
            f"remainder_norm {rep['remainder_norm']:.12g}")


def _cmd_rde(args):
    X = load_rough_dir(args.driver)
    fieldspec = _field_from_spec(args.field, len(args.y0), X.n)
    sol = rde_solve(fieldspec, X, args.y0)
    dav = davie_residual(sol.controlled, fieldspec)
    report = {
        "iterations": sol.iterations,
        "subinterval_boundaries": [list(map(int, s)) for s in sol.subintervals],
        "controlled_norm": controlled_norm(sol.controlled),
        "davie_slope": None if dav["slope"] == INF else dav["slope"],
        "davie_norm": dav["norm"],
    }
    return ([(args.out, sol.path), (args.report, report)],
            f"davie_norm {dav['norm']:.12g}")


def _cmd_mc(args):
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if args.experiment:
        cfg.experiment = args.experiment
    cfg.check_values()
    rows = _mc_rows(cfg)
    return [(args.out, rows)], f"wrote {len(rows)} rows to {args.out}"


def _mc_rows(cfg: ExperimentConfig) -> list:
    """The result rows (key, statistic, estimate, stderr, samples) of one
    experiment; an empty cell is None."""
    rows = []
    if cfg.experiment == "bm-ynp":
        rep = bm_besov_statistic(cfg.p, cfg.ns, cfg.level, cfg.samples, cfg.seed,
                                 dim=cfg.dim)
        for n, row in sorted(rep["per_n"].items()):
            rows.append([n, "mean", row["mean"], row["stderr"], row["samples"]])
            rows.append([n, "variance", row["variance"], None, row["samples"]])
            rows.append([n, "oracle_mean_window", row["oracle_mean_window"],
                         row["oracle_stderr_window"], row["samples"]])
        slope = rep["variance_slope"] if len(cfg.ns) > 1 else None  # one n: no slope
        rows.append(["all", "variance_log2_slope", slope, None, cfg.samples])
    elif cfg.experiment == "fbm-ynp":
        rep = fbm_besov_statistic(cfg.H, cfg.p, cfg.ns, cfg.level, cfg.samples,
                                  cfg.seed, dim=cfg.dim)
        for n, row in sorted(rep["per_n"].items()):
            rows.append([n, "mean", row["mean"], row["stderr"], row["samples"]])
            rows.append([n, "variance", row["variance"], None, row["samples"]])
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
                rows.append([length, key, row[key], None, row["samples"]])
    else:
        raise GridFormatError(f"unknown experiment {cfg.experiment!r}")
    return rows


def _cmd_accept(args) -> int:
    from .acceptance import CRITERIA, run_suite  # only `accept` pays its import

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


@functools.cache  # built once per process: parsing leaves it unchanged
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
    sp.add_argument("--kind", choices=tuple(_FLAVORS), required=True)
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


def _check_finite(name: str, value) -> None:
    """Raise GridFormatError naming the first non-finite float of an output:
    a key path within a JSON object, else the file and index.  A rough path
    is checked through the chen_residual its command returns beside it."""
    if isinstance(value, GridPath):
        if np.isfinite(value.planes).all():
            return
        value = value.values.tolist()
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(f"{name}.{key}" if name else key, item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(f"{name}[{i}]", item)
    elif isinstance(value, float) and not math.isfinite(value):
        raise GridFormatError(f"{name} is {value}: not finite; the inputs'"
                              " magnitudes overflow float64")


def _write(path: str, value) -> None:
    if isinstance(value, GridPath):
        save_path_csv(path, value)
    elif isinstance(value, RoughPath):
        save_rough_dir(path, value)
    elif isinstance(value, list):  # mc rows: csv writes None as an empty cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [["key", "statistic", "estimate", "stderr", "samples"], *value])
    else:
        with open(path, "w") as fh:
            json.dump(value, fh, indent=2)


def _run(args) -> int:
    """Run a command, check every float of its outputs, and only then write
    them and print its line; a non-finite float writes nothing (exit 1)."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            outputs, line = args.fn(args)
    except OverflowError as exc:  # a float power such as tau**gamma
        raise GridFormatError(f"a result is not finite: {exc}") from None
    for path, value in outputs:
        _check_finite("" if isinstance(value, dict) else path, value)
    for path, value in outputs:
        if path:
            _write(path, value)
    print(line)
    return 0


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _cmd_accept(args) if args.fn is _cmd_accept else _run(args)
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
