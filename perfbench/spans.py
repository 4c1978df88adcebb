"""Span recording around calls into the besov_rough layers.

The benchmark measures each layer from outside the package: `install`
replaces every traced function with a wrapper in every module namespace that
binds it (and methods on their class), so calls made from inside the package
go through the wrapper as well.  Each wrapper appends one span
(id, name, parent, start, end) to an in-memory list; counters that read the
arguments or the result (rows, bytes, solver sweeps) are added at the same
boundary.  A wrapper records only while its recorder is `active`, which the
pass runner sets around the ops.  Nothing is written until `Recorder.dump`
at the end of a pass.

Untraced passes never call `install`, so they run with no wrapper; they
call `count_installed` to show it.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

MARK = "_perfbench_span"


def _rows(res):
    return int(res.shape[0])


def _dir_bytes(path):
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def _solver_counts(iterations, subintervals, halvings):
    return {"sweeps": sum(iterations), "subintervals": len(subintervals),
            "halvings": int(halvings)}


def _save_rough_dir(args, kwargs, res):
    return {"bytes": _dir_bytes(args[0])}


def _load_rough_dir(args, kwargs, res):
    return {"bytes": _dir_bytes(args[0])}


def _load_germ_csv(args, kwargs, res):
    # every germ file holds one row per pair i < j of its grid
    n = res.grid.n
    return {"rows": n * (n - 1) // 2}


def _band_lp_norms(args, kwargs, res):
    return {"shifts": int(args[2] if len(args) > 2 else kwargs["max_shift"])}


def _young_ode(args, kwargs, res):
    return _solver_counts(res.iterations, res.subintervals,
                          res.bound["halvings"])


def _rde(args, kwargs, res):
    return _solver_counts(res.iterations, res.subintervals,
                          res.report["halvings"])


def _array_rows(args, kwargs, res):
    return {"rows": _rows(res)}


def _pairs_levels_rows(args, kwargs, res):
    return {"rows": _rows(res[1])}


# (module, attribute path, extra counters, quantities reported by run.py).
# Names are reported as "<layer>.<attribute path>"; the `_rng` layer is
# reported as `rng` because benchmark metric names start with a letter.
TARGETS = [
    ("cli", "save_rough_dir", _save_rough_dir, ("calls", "s", "bytes")),
    ("cli", "load_rough_dir", _load_rough_dir, ("calls", "self_s", "bytes")),
    ("grid", "load_germ_csv", _load_germ_csv, ("calls", "s", "rows")),
    ("grid", "load_path_csv", None, ("s",)),
    ("grid", "save_path_csv", None, ("s",)),
    ("grid", "TwoParamField.band", _array_rows, ("calls", "self_s", "rows")),
    ("grid", "TwoParamField.pairs", _array_rows, ("calls", "self_s", "rows")),
    ("grid", "TwoParamField.materialize", None, ("calls", "s")),
    ("norms", "band_lp_norms", _band_lp_norms, ("calls", "shifts", "self_s")),
    ("norms", "two_param_norm", None, ("calls", "s")),
    ("norms", "two_param_metric", None, ("calls", "s")),
    ("norms", "besov_seminorm", None, ("calls", "s")),
    ("norms", "besov_metric", None, ("calls", "s")),
    ("sewing", "sew", None, ("calls", "s")),
    ("sewing", "rate_certificate", None, ("s",)),
    ("young", "young_integral", None, ("s",)),
    ("young", "young_ode_solve", _young_ode,
     ("calls", "s", "sweeps", "subintervals", "halvings", "useful_ratio")),
    ("young", "VectorField.values_along", None, ("calls",)),
    ("rough", "brownian_lift", None, ("s",)),
    ("rough", "geometric_lift", None, ("s",)),
    ("rough", "lyons_extend", None, ("s",)),
    ("rough", "chen_residual", None, ("s",)),
    ("rough", "dilate", None, ("s",)),
    ("rough", "rough_metric", None, ("s",)),
    ("rough", "RoughPath.pairs_levels", _pairs_levels_rows,
     ("calls", "rows", "self_s")),
    ("rough", "fbm_path", None, ("calls", "s")),
    ("rough", "homogeneous_distance_level2", None, ("calls", "s")),
    ("controlled", "rde_solve", _rde,
     ("calls", "self_s", "sweeps", "subintervals", "halvings",
      "useful_ratio")),
    ("controlled", "rde_stability_probe", None, ("self_s",)),
    ("controlled", "controlled_distance", None, ("s",)),
    ("controlled", "davie_residual", None, ("s",)),
    ("controlled", "rough_integral", None, ("s",)),
    ("stochlab", "bm_besov_statistic", None, ("self_s",)),
    ("stochlab", "fbm_besov_statistic", None, ("self_s",)),
    ("stochlab", "pprod_bdg_experiment", None, ("self_s",)),
    ("stochlab", "paraproduct", None, ("calls", "s")),
    ("stochlab", "square_function", None, ("calls", "s")),
    ("stochlab", "DiscreteMartingale.generate", None, ("calls", "s")),
    ("_rng", "rng_for", None, ("calls", "s")),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr}"


class Recorder:
    """In-memory spans and counters of one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.active = False
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn, extra):
        idx = len(self.names)
        self.names.append(name)
        counters = self.counters.setdefault(name, {})
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, idx, parent, start, end))
            if extra is not None:
                for key, val in extra(args, kwargs, res).items():
                    counters[key] = counters.get(key, 0) + val
            return res

        setattr(wrapper, MARK, name)
        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans and counters of the pass as JSON."""
        names = self.names
        rows = [[sid, names[idx], parent, start, end, self.pass_id]
                for sid, idx, parent, start, end in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end",
                                  "pass_id"],
                       "spans": rows, "counters": self.counters,
                       "names": names}, fh)


def summarize(dumped: dict) -> dict:
    """Per-name calls, inclusive seconds and self seconds of one pass.

    Inclusive seconds count only the outermost span of a name, so a function
    that re-enters itself is not counted twice; self seconds are each span's
    duration minus that of its direct child spans.
    """
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
           for name in dumped["names"]}
    name_of, parent_of, dur, child_sum = {}, {}, {}, {}
    for sid, name, parent, start, end, _ in dumped["spans"]:
        d = end - start
        dur[sid] = d
        name_of[sid] = name
        parent_of[sid] = parent
        if parent >= 0:
            child_sum[parent] = child_sum.get(parent, 0.0) + d
    for sid, d in dur.items():
        row = out[name_of[sid]]
        row["calls"] += 1
        row["self_s"] += d - child_sum.get(sid, 0.0)
        anc = parent_of[sid]
        while anc >= 0 and name_of[anc] != name_of[sid]:
            anc = parent_of[anc]
        if anc < 0:
            row["s"] += d
    for name, extra in dumped["counters"].items():
        out[name].update(extra)
    return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "besov_rough"
                                  or name.startswith("besov_rough."))]


def install(recorder: Recorder) -> None:
    """Wrap every target in every besov_rough namespace that binds it."""
    modules = _package_modules()
    for mod_name, attr, extra, _ in TARGETS:
        owner = sys.modules[f"besov_rough.{mod_name}"]
        cls_name, _, last = attr.rpartition(".")
        name = span_name(mod_name, attr)
        if cls_name:
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[last]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(name, raw.__func__, extra))
            else:
                wrapped = recorder.wrap(name, raw, extra)
            setattr(cls, last, wrapped)
            continue
        original = getattr(owner, last)
        wrapped = recorder.wrap(name, original, extra)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)


def count_installed() -> int:
    """Number of wrapped bindings currently present in besov_rough."""
    found = 0
    for mod in _package_modules():
        for val in vars(mod).values():
            if hasattr(val, MARK):
                found += 1
            elif isinstance(val, type):
                for member in vars(val).values():
                    if hasattr(getattr(member, "__func__", member), MARK):
                        found += 1
    return found
