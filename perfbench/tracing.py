"""Per-layer tracing of an iseasim run, installed from outside the package.

`Tracer.install` replaces the callables in `HOOKS` by timing wrappers on
the module (or class) that owns them and records one span per call:
name, parent span, start and end.  Spans stay in memory; `layer_metrics`
folds them into the per-layer metrics of `LAYER_METRICS` when the run
ends.  The pipeline imports `estimate_batch`, `observe_batch`,
`sample_arrays` and the `map_classify_*` functions by name, so those are
wrapped in `iseasim.pipeline`'s namespace, where the pipeline looks them
up.  A hook whose target no longer exists is recorded as missing, and
every metric that depends on it is reported as missing, never as zero.
"""

from __future__ import annotations

import os
import time

# Trials whose KKT residual exceeds this are excluded by the pipeline's
# default per-trial gate (`kkt_tol` in `run_trials_batch`).
KKT_GATE = 1e-4


def _instances(args, kwargs, result):
    return args[0].B


def _iterations(args, kwargs, result):
    return result.iterations


def _trials(args, kwargs, result):
    return len(args[1])


def _rows(index):
    def count(args, kwargs, result):
        return len(args[index])
    return count


def _file_bytes(args, kwargs, result):
    from iseasim import pipeline
    path = os.fspath(args[1])
    return os.path.getsize(path) + os.path.getsize(pipeline.confusion_path(path))


# (module, attribute path, per-call count or None).  The span name is
# "<module>.<attribute path>".
HOOKS = (
    ("pipeline", "_solve_designs", None),
    ("solvers", "_DualCore.run", _instances),
    ("solvers", "_DualCore.polish", None),
    ("solvers", "_bisect_fixed", None),
    ("solvers", "tdm_mse_optimal", None),
    ("solvers", "tdm_md_optimal", None),
    ("solvers", "fdm_mse_dual", _iterations),
    ("solvers", "fdm_md_optimal", _iterations),
    ("solvers", "brute_force_oracle", _iterations),
    ("pipeline", "run_trials_batch", None),
    ("pipeline", "_draw_trials", _trials),
    ("pipeline", "calibrate", None),
    ("pipeline", "_decode", None),
    ("pipeline", "_reduce", None),
    ("pipeline", "export", _file_bytes),
    ("pipeline", "estimate_batch", _rows(2)),
    ("pipeline", "observe_batch", None),
    ("pipeline", "sample_arrays", None),
    ("pipeline", "map_classify_masked", _rows(1)),
    ("pipeline", "map_classify_batch", _rows(1)),
)

# metric -> (unit, how it is derived, span names it reads).  "time" sums
# span durations, "self" sums durations minus the direct child spans,
# "count" sums the hook's per-call counts, "calls" counts spans and
# "kkt_*" read the residuals `_solve_designs` returns.
LAYER_METRICS = {
    "solvers.solve_s": ("s", "time", ["pipeline._solve_designs"]),
    "solvers.dual_run_s": ("s", "time", ["solvers._DualCore.run"]),
    "solvers.dual_instances": ("count", "count", ["solvers._DualCore.run"]),
    "solvers.polish_s": ("s", "time", ["solvers._DualCore.polish"]),
    "solvers.bisect_s": ("s", "time", ["solvers._bisect_fixed"]),
    "solvers.bisect_calls": ("count", "calls", ["solvers._bisect_fixed"]),
    "solvers.kkt_p99": ("ratio", "kkt_p99", ["pipeline._solve_designs"]),
    "solvers.kkt_max": ("ratio", "kkt_max", ["pipeline._solve_designs"]),
    "solvers.kkt_over_gate": ("count", "kkt_over_gate", ["pipeline._solve_designs"]),
    "solvers.tdm_s": ("s", "time", ["solvers.tdm_mse_optimal", "solvers.tdm_md_optimal"]),
    "solvers.tdm_calls": ("count", "calls", ["solvers.tdm_mse_optimal", "solvers.tdm_md_optimal"]),
    "solvers.fdm_single_s": ("s", "time", ["solvers.fdm_mse_dual", "solvers.fdm_md_optimal"]),
    "solvers.fdm_single_calls": ("count", "calls", ["solvers.fdm_mse_dual", "solvers.fdm_md_optimal"]),
    "solvers.subgradient_iters": ("count", "count", ["solvers.fdm_mse_dual", "solvers.fdm_md_optimal"]),
    "solvers.oracle_s": ("s", "time", ["solvers.brute_force_oracle"]),
    "solvers.oracle_calls": ("count", "calls", ["solvers.brute_force_oracle"]),
    "solvers.oracle_grid_points": ("count", "count", ["solvers.brute_force_oracle"]),
    "pipeline.draw_s": ("s", "time", ["pipeline._draw_trials"]),
    "pipeline.draw_trials": ("count", "count", ["pipeline._draw_trials"]),
    "pipeline.calibrate_s": ("s", "time", ["pipeline.calibrate"]),
    "pipeline.calibrate_calls": ("count", "calls", ["pipeline.calibrate"]),
    "pipeline.batch_self_s": ("s", "self", ["pipeline.run_trials_batch"]),
    "pipeline.decode_s": ("s", "time", ["pipeline._decode"]),
    "pipeline.reduce_s": ("s", "time", ["pipeline._reduce"]),
    "pipeline.export_s": ("s", "time", ["pipeline.export"]),
    "pipeline.export_bytes": ("bytes", "count", ["pipeline.export"]),
    "estimators.estimate_s": ("s", "time", ["pipeline.estimate_batch"]),
    "estimators.estimate_rows": ("count", "count", ["pipeline.estimate_batch"]),
    "estimators.observe_s": ("s", "time", ["pipeline.observe_batch"]),
    "prior.sample_s": ("s", "time", ["pipeline.sample_arrays"]),
    "prior.classify_s": ("s", "time", ["pipeline.map_classify_masked", "pipeline.map_classify_batch"]),
    "prior.classify_rows": ("count", "count", ["pipeline.map_classify_masked", "pipeline.map_classify_batch"]),
}


class Tracer:
    """Span recorder for one process.  Install once, read the metrics at
    the end, uninstall to restore the original callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = {}
        self.kkt = []
        self.missing = set()
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self, modules, hooks=HOOKS):
        """Wrap every hook target found in `modules` (name -> module)."""
        for mod_name, path, counter in hooks:
            name = f"{mod_name}.{path}"
            *owner_path, attr = path.split(".")
            owner = modules.get(mod_name)
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrap(name, fn, counter))
            self._restore.append((owner, attr, fn))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn, counter):
        tracer = self
        keep_kkt = name == "pipeline._solve_designs"

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, parent, tracer.clock(), None])
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][3] = tracer.clock()
                tracer.stack.pop()
            if counter is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + counter(args, kwargs, result)
            if keep_kkt:
                tracer.kkt.extend(float(v) for v in result[2])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- read-out ------------------------------------------------------------

    def durations(self):
        """(total duration, self duration, span count) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            total, self_t, calls = out.get(name, (0.0, 0.0, 0))
            dur = end - start
            out[name] = (total + dur, self_t + dur - child_time[i], calls + 1)
        return out

    def layer_metrics(self):
        """Metric name -> value, or None where a hook it reads is missing."""
        dur = self.durations()
        kkt = sorted(self.kkt)
        out = {}
        for metric, (unit, kind, names) in LAYER_METRICS.items():
            if any(n in self.missing for n in names):
                out[metric] = None
                continue
            stats = [dur.get(n, (0.0, 0.0, 0)) for n in names]
            if kind == "time":
                value = sum(s[0] for s in stats)
            elif kind == "self":
                value = sum(s[1] for s in stats)
            elif kind == "calls":
                value = sum(s[2] for s in stats)
            elif kind == "count":
                value = sum(self.counts.get(n, 0) for n in names)
            elif kind == "kkt_p99":
                value = _quantile(kkt, 0.99)
            elif kind == "kkt_max":
                value = kkt[-1] if kkt else 0.0
            else:  # kkt_over_gate
                value = sum(1 for v in kkt if v > KKT_GATE)
            out[metric] = value
        return out


def _quantile(sorted_values, q):
    """Linear-interpolation quantile (numpy's default) of sorted values."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
