"""One benchmark pass of one workload, in a fresh interpreter.

Started by run.py with the pass's own empty work directory as the current
directory.  It imports besov_rough from the checkout's `src`, builds the
workload's inputs from the seed (set-up), times each op, records peak
memory, then runs the output checks and writes `result.json` (and, in a
traced pass, `spans.json`) into the work directory.  A traced pass records
spans around the ops only, not during set-up or the checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_model() -> str:
    """The CPU's model name (Linux), or what the platform module knows."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def env_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "cpu": cpu_model(), "nproc": os.cpu_count(), "threads": threads,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--pass-id", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="wall-clock time at which run.py started it")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import besov_rough
    import besov_rough.cli  # noqa: F401  (binds every layer module)

    if not os.path.abspath(besov_rough.__file__).startswith(src + os.sep):
        print(f"besov_rough imported from {besov_rough.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    recorder = None
    if args.trace:
        recorder = spans.Recorder(args.pass_id)
        spans.install(recorder)
    refs = workloads.Refs(os.path.join(HERE, "refs", args.size, args.workload),
                          args.seed)
    result = {"ops": []}
    try:
        ops = workloads.WORKLOADS[args.workload](
            workloads.SIZES[args.size], args.seed, os.getcwd(), refs)
    except Exception:
        result["setup_error"] = traceback.format_exc()
        ops = []
    result["setup_s"] = time.time() - args.spawned

    if recorder is not None:
        recorder.active = True
    outputs, wall = [], 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception:
            out, error = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
        wall += seconds
        result["ops"].append({"name": op.name, "error": error,
                              "seconds": seconds})
        outputs.append(out)
    if recorder is not None:
        recorder.active = False
    result["wall_s"] = wall
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result["rss_mb"] = rusage.ru_maxrss / 1024
    result["wrappers"] = spans.count_installed()
    if recorder is not None:
        recorder.dump("spans.json")

    for op, out, row in zip(ops, outputs, result["ops"]):
        if row["error"] is not None:
            continue
        try:
            op.check(out)
        except workloads.CheckFailed as exc:
            row["error"] = f"check failed: {exc}"
        except Exception:
            row["error"] = "check raised: " + traceback.format_exc(limit=-3)
    result["env"] = env_info()
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
