"""besov-rough benchmark driver.

    python3 perfbench/run.py --workload {rough-files,solvers,mc-stats} \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke [--workload W]

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (perfbench/passrun.py) with BLAS/OpenMP threads fixed to 1, in
its own work directory under `.perfbench_tmp/` that is removed afterwards;
nothing is warmed up, so every pass pays the per-process caches a CLI user
pays.  Passes repeat until the next one would end after `--seconds`.

With `--trace 0` every pass is untraced and the end-to-end metrics are the
medians over passes, with times scaled by a calibration kernel that this
driver times right before and right after each pass (README.md).  With
`--trace 1` untraced and traced passes alternate; the per-layer metrics are
medians over the traced passes, while the per-op metrics and
`trace.overhead_s` (traced minus untraced median `wall_s`) use the untraced
ones.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  An op counts as failed if it raises,
exits nonzero, prints a JSON error line or misses its check; a pass that
dies before reporting counts as one failed op.  `--smoke` runs every
workload once untraced and once traced at tiny sizes with every check, and
exits nonzero if anything fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import TARGETS, span_name, summarize  # noqa: E402
from workloads import (DEFAULT_SEED, OP_METRICS, SIZES,  # noqa: E402
                       WORKLOADS, mc_samples)

# Usual `calibrate` time on the baseline machine; times are reported at
# that speed (see README.md).
CALIB_REF_S = 0.085
# Every run must end well inside three minutes, whatever --seconds says.
HARD_LIMIT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows": "count",
         "bytes": "bytes", "shifts": "count", "sweeps": "count",
         "subintervals": "count", "halvings": "count", "useful_ratio": "ratio"}


# Traced function -> reported quantities (see README.md).
LAYER_QUANTITIES = {span_name(mod, attr): quantities
                    for mod, attr, _, quantities in TARGETS}


def per_layer_units() -> dict:
    units = {f"{fn}.{q}": UNITS[q]
             for fn, qs in LAYER_QUANTITIES.items() for q in qs}
    for name in OP_METRICS:
        units[name] = "1/s" if name.endswith("_per_s") else "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_values(summary: dict) -> dict:
    """Flatten one traced pass's span summary into per-layer metrics."""
    out = {}
    for fn, qs in LAYER_QUANTITIES.items():
        row = summary.get(fn, {})
        for q in qs:
            if q == "useful_ratio":
                sub, halv = row.get("subintervals", 0), row.get("halvings", 0)
                out[f"{fn}.{q}"] = sub / (sub + halv) if sub + halv else 0.0
            else:
                out[f"{fn}.{q}"] = row.get(q, 0)
    return out


def calibrate() -> float:
    """Seconds for a fixed mix of Python and numpy work: float formatting
    and parsing, small-array numpy calls, and passes over an 8 MB array.

    It runs in this driver, which never imports besov_rough, so the
    program's own state (heap, caches) cannot change it; it measures only
    the speed of the shared machine around a pass.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    text = ",".join(repr(v) for v in rng.standard_normal(10000).tolist())
    sum(float(x) for x in text.split(","))
    a = rng.standard_normal((64, 4))
    for _ in range(1000):
        np.sqrt(np.einsum("ij,ij->i", a, a)).sum()
    big = rng.standard_normal(1 << 20)
    for _ in range(5):
        np.cumsum(big)
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_pass(workload, size, seed, traced, pass_id, timeout):
    """One pass in a fresh interpreter, between two pairs of calibration
    runs; returns its parsed result, with `crashed` set when it reported
    nothing."""
    work = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}-"
                        f"{pass_id}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--root", ROOT,
           "--workload", workload, "--size", size, "--seed", str(seed),
           "--trace", str(int(traced)), "--pass-id", str(pass_id)]
    started = time.perf_counter()
    calib = [calibrate(), calibrate()]
    cmd += ["--spawned", repr(time.time())]
    try:
        try:
            proc = subprocess.run(cmd, cwd=work, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=timeout)
            rc, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, stderr = None, f"pass timed out after {timeout:.0f} s"
        calib += [calibrate(), calibrate()]
        result_path = os.path.join(work, "result.json")
        if rc != 0 or not os.path.exists(result_path):
            return {"crashed": f"exit {rc}: {stderr[-2000:]}",
                    "duration": time.perf_counter() - started}
        with open(result_path) as fh:
            result = json.load(fh)
        if traced:
            with open(os.path.join(work, "spans.json")) as fh:
                result["layers"] = layer_values(summarize(json.load(fh)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    result["calib_s"] = calib
    result["traced"] = traced
    result["duration"] = time.perf_counter() - started
    return result


def pass_errors(res) -> list[str]:
    if "crashed" in res:
        return [res["crashed"]]
    errors = [f"{op['name']}: {op['error']}" for op in res["ops"]
              if op["error"]]
    if "setup_error" in res:
        errors.append("setup: " + res["setup_error"])
    if not res["traced"] and res["wrappers"]:
        errors.append(f"{res['wrappers']} trace wrappers in an untraced pass")
    return errors


def pass_metrics(workload, size, res) -> dict:
    """End-to-end and per-op values of one untraced pass; per-op metrics of
    other workloads are 0.  Times are scaled by CALIB_REF_S over the pass's
    mean calibration time, so they read as seconds on the baseline machine
    at its usual speed."""
    scale = CALIB_REF_S / statistics.fmean(res["calib_s"])
    secs = {op["name"]: op["seconds"] * scale for op in res["ops"]}
    out = {"wall_s": res["wall_s"] * scale, "setup_s": res["setup_s"] * scale,
           "peak_rss_mb": res["rss_mb"]}
    for name, (owner, ops) in OP_METRICS.items():
        if owner != workload:
            out[name] = 0.0
            continue
        total = sum(secs[op] for op in ops)
        out[name] = (mc_samples(SIZES[size]) / total
                     if name.endswith("_per_s") else total / len(ops))
    return out


def run_workload(workload, seed, seconds, trace, size="full"):
    """Run passes for about `seconds`; returns the final result object."""
    start = time.perf_counter()
    calibrate()  # the first call pays one-off page faults
    passes, durations = [], []
    attempted = failed = 0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        remaining = HARD_LIMIT_S - (time.perf_counter() - start)
        res = run_pass(workload, size, seed, traced, len(passes),
                       timeout=max(remaining, 1.0))
        passes.append(res)
        durations.append(res["duration"])
        errors = pass_errors(res)
        n_ops = max(1, len(res.get("ops", ())))
        attempted += n_ops
        failed += min(n_ops, len(errors))
        for err in errors:
            print(f"FAIL pass {len(passes) - 1} ({workload}): {err}")
        elapsed = time.perf_counter() - start
        est = statistics.median(durations)
        have_traced = any(p.get("traced") for p in passes)
        if trace and not have_traced and elapsed + est < HARD_LIMIT_S:
            continue
        if elapsed + est > min(seconds, HARD_LIMIT_S):
            break

    good = [p for p in passes if not pass_errors(p)]
    plain = [p for p in good if not p["traced"]]
    traced_ok = [p for p in good if p["traced"]]
    log_passes(passes)
    metrics = {}
    rows = [pass_metrics(workload, size, p) for p in plain]
    if not trace and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r[name] for r in rows),
                             "unit": unit}
    if trace and plain and traced_ok:
        traced_wall = statistics.median(
            pass_metrics(workload, size, p)["wall_s"] for p in traced_ok)
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_s":
                value = traced_wall - statistics.median(r["wall_s"]
                                                        for r in rows)
            elif name in OP_METRICS:
                value = statistics.median(r[name] for r in rows)
            else:
                value = statistics.median(p["layers"][name] for p in traced_ok)
            metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def log_passes(passes):
    ok = [p for p in passes if "crashed" not in p]
    if ok:
        print("env " + json.dumps(ok[0]["env"], sort_keys=True))
    for i, p in enumerate(passes):
        if "crashed" in p:
            print(f"pass {i}: crashed")
            continue
        ops = " ".join(f"{op['name']}={op['seconds']:.3f}" for op in p["ops"])
        calib = statistics.fmean(p["calib_s"])
        print(f"pass {i} traced={int(p['traced'])} calib_s={calib:.4f} "
              f"setup_s={p['setup_s']:.3f} wall_s={p['wall_s']:.3f} "
              f"rss_mb={p['rss_mb']:.1f} {ops}")


def smoke(workloads) -> int:
    """Every workload at tiny size, untraced and traced, every check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    expected_layers = {m["name"] for m in declared["per_layer"]}
    expected_e2e = {m["name"] for m in declared["end_to_end"]}
    bad = 0
    for workload in workloads:
        for trace in (0, 1):
            out = run_workload(workload, DEFAULT_SEED, 0, trace, size="smoke")
            names = set(out["metrics"])
            want = expected_layers if trace else expected_e2e
            status = "ok" if out["correct"] and names == want else "FAIL"
            if names != want:
                print(f"metric names differ from BENCHMARK.json: "
                      f"{sorted(names ^ want)}")
            print(f"smoke {workload} trace={trace}: {status} "
                  f"({out['attempted']} ops, {out['failed']} failed)")
            bad += status != "ok"
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload and check, then exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "besov_rough",
                                       "__init__.py")):
        print(f"no besov_rough sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        ap.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
