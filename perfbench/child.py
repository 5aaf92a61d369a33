"""One repetition of a benchmark workload, in a fresh process.

usage: python3 perfbench/child.py WORKLOAD CONFIG_JSON OUTPUT_CSV MODE

MODE is "setup" (set up and stop), "run" (untraced) or "trace" (per-layer
spans on).  Set-up is importing iseasim and loading and validating the
config.  Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback

import tracing
import workloads


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def repetition(workload, config_path, out_path, mode):
    result = {"mode": mode, "error": None}
    t0 = time.perf_counter()
    try:
        import iseasim
        run = workloads.prepare(workload, config_path)
    except Exception as exc:  # a broken set-up is a failed repetition
        traceback.print_exc()
        result["error"] = f"set-up: {type(exc).__name__}: {exc}"
        return result
    result["setup_s"] = time.perf_counter() - t0
    import numpy
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "iseasim": iseasim.__version__}
    if mode == "setup":
        return result

    tracer = None
    if mode == "trace":
        from iseasim import pipeline, solvers
        tracer = tracing.Tracer().install({"pipeline": pipeline, "solvers": solvers})
    from iseasim.validation import NonConvergenceError

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        result["output"] = run(out_path)
    except NonConvergenceError as exc:
        result["error"] = f"NonConvergenceError: {exc}"
    except Exception as exc:  # reported as a failed repetition, not a crash
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - w0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = _cpu_s(usage1) - _cpu_s(usage0)
    result["peak_rss_mib"] = usage1.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["missing_hooks"] = sorted(tracer.missing)
    return result


if __name__ == "__main__":
    print(json.dumps(repetition(*sys.argv[1:5])))
