"""Measurement helpers for the ssnorm benchmark: the metric catalogue, the
tail percentile, the span tracer and the self-time arithmetic.

Pure Python with no numpy import, so the orchestrating process stays light
and the helpers can be tested on synthetic data.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass

MIN_BEYOND = 10
# interpreter_loop(SETUP_CAL_N) brackets the set-up; its median on the
# reference host (see workloads.py) is SETUP_CAL_REF_MS.
SETUP_CAL_N = 200_000
SETUP_CAL_REF_MS = 15.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str


END_TO_END = (
    Metric("setup_s", "s", "lower", "end_to_end"),
    Metric("op_ms.p50", "ms", "lower", "end_to_end"),
    Metric("op_ms.tail", "ms", "lower", "end_to_end"),
    Metric("samples_per_s", "1/s", "higher", "end_to_end"),
    Metric("peak_rss_mb", "MB", "lower", "end_to_end"),
    Metric("ok_share", "share", "higher", "end_to_end"),
)

# Public functions wrapped by the tracer: (layer, module, attribute path).
# The span name is "<layer>.<last path component>".
TRACED = (
    ("simplex", "ssnorm.simplex", "sparsestmax"),
    ("simplex", "ssnorm.simplex", "sparsestmax_vjp"),
    ("layer", "ssnorm.layer", "ssn_forward"),
    ("layer", "ssnorm.layer", "ssn_backward"),
    ("layer", "ssnorm.layer", "update_running_stats"),
    ("training", "ssnorm.training", "train"),
    ("training", "ssnorm.training", "make_synthetic_dataset"),
    ("training", "ssnorm.training", "TrajectoryLog.to_csv"),
    ("cli", "ssnorm.cli", "main"),
)
STAGES = ("Sparsemax", "Circle", "Face", "Vertex")


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


def _m(name, unit, better):
    return Metric(name, unit, better, name.split(".", 1)[0])


PER_LAYER = (
    _m("simplex.sparsestmax.calls_per_op", "count", "lower"),
    _m("simplex.sparsestmax.us_per_call", "us", "lower"),
    _m("simplex.sparsestmax_vjp.calls_per_op", "count", "lower"),
    _m("simplex.sparsestmax_vjp.us_per_call", "us", "lower"),
    _m("simplex.self_share", "share", "lower"),
    _m("simplex.stage.Sparsemax", "share", "higher"),
    _m("simplex.stage.Circle", "share", "lower"),
    _m("simplex.stage.Face", "share", "lower"),
    _m("simplex.stage.Vertex", "share", "lower"),
    _m("simplex.levels_per_call", "count", "lower"),
    _m("layer.ssn_forward.self_ms_per_op", "ms", "lower"),
    _m("layer.ssn_backward.self_ms_per_op", "ms", "lower"),
    _m("layer.update_running_stats.self_ms_per_op", "ms", "lower"),
    _m("layer.self_share", "share", "lower"),
    _m("layer.ssn_forward.input_gbs", "GB/s", "higher"),
    _m("layer.ssn_backward.input_gbs", "GB/s", "higher"),
    _m("layer.active_normalizers_per_call", "count", "lower"),
    _m("machine.copy_gbs", "GB/s", "higher"),
    _m("training.train.self_ms_per_op", "ms", "lower"),
    _m("training.self_share", "share", "lower"),
    _m("training.to_csv.ms_per_op", "ms", "lower"),
    _m("training.make_synthetic_dataset.ms_per_op", "ms", "lower"),
    _m("cli.main.self_ms_per_op", "ms", "lower"),
    _m("trace.overhead_pct", "%", "lower"),
)


def tail(samples):
    """Latency at the highest percentile with at least MIN_BEYOND samples
    above it: the (MIN_BEYOND+1)-th largest sample, which is the
    nearest-rank percentile 100*(n-MIN_BEYOND)/n.

    Returns (value, percentile, n); raises ValueError when too few samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_BEYOND:
        raise ValueError(f"need more than {MIN_BEYOND} samples, got {n}")
    rank = n - MIN_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def interpreter_loop(n: int) -> int:
    """Fixed pure-Python work: ``n`` integer multiply-adds."""
    total = 0
    for i in range(n):
        total += i * i
    return total


def timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def normalise(op_ms: float, cal_before_ms: float, cal_after_ms: float,
              ref_ms: float) -> float:
    """Op time at reference host speed: the measured time scaled by the
    reference calibration time over the mean of the calibrations timed just
    before and just after the op."""
    return op_ms * ref_ms / ((cal_before_ms + cal_after_ms) / 2)


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.  ``spans`` maps id -> (parent, t0, t1)."""
    children: dict = {}
    for sid, (parent, t0, t1) in spans.items():
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, (_, t0, t1) in spans.items():
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def _nbytes(obj) -> int:
    """Bytes of an array argument, or of the arrays one attribute level
    inside an object argument (a parameter or cache record)."""
    nb = getattr(obj, "nbytes", None)
    if isinstance(nb, int):
        return nb
    fields = getattr(obj, "__dict__", None) or {}
    return sum(v.nbytes for v in fields.values()
               if isinstance(getattr(v, "nbytes", None), int))


def _probe_bytes(args, kwargs, result):
    return {"bytes": sum(_nbytes(a) for a in (*args, *kwargs.values()))}


def _probe_projection(args, kwargs, result):
    p = result.p
    return {"stage": getattr(result.stage, "value", str(result.stage)),
            "levels": len(result.levels),
            "support": [i for i in range(len(p)) if p[i] != 0.0]}


PROBES = {
    "simplex.sparsestmax": _probe_projection,
    "layer.ssn_forward": _probe_bytes,
    "layer.ssn_backward": _probe_bytes,
}


class Tracer:
    """Wraps the public functions listed in ``TRACED`` with span recorders.

    Each wrapped function is replaced by identity in every loaded
    ``ssnorm`` module (and on its class for methods), so calls made through
    names imported elsewhere in the package are traced too.  A function
    that no longer exists is listed in ``missing`` and never wrapped.
    Spans stay in memory until ``dump`` writes them once.
    """

    def __init__(self):
        self.spans = []          # [name, parent, op, t0, t1, probe]
        self.missing = []
        self._stack = []
        self._op = -1
        self._undo = []

    def install(self, targets=TRACED):
        self.missing = []
        for layer, module, path in targets:
            name = span_name(layer, path)
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                orig = None
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            holders = [owner] + [m for key, m in list(sys.modules.items())
                                 if key.startswith("ssnorm") and m is not owner]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, t0 = None, time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = None
                if probe is not None and result is not None:
                    try:
                        extra = probe(args, kwargs, result)
                    except (AttributeError, TypeError, ValueError):
                        extra = None
                spans[sid] = [name, parent, self._op, t0, t1, extra]
        return wrapper

    def op(self, op_id: int, fn):
        """Run one benchmark op under a root span named ``op``."""
        self._op = op_id
        return self._wrap("op", fn)()

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")

    def summary(self) -> dict:
        """Per-name totals plus the projection and layer counts that the
        per-layer metrics are derived from."""
        st = self_times({sid: (s[1], s[3], s[4]) for sid, s in enumerate(self.spans)})
        names: dict = {}
        stages = {s: 0 for s in STAGES}
        levels, forwards = 0, {}
        for sid, (name, parent, _, t0, t1, extra) in enumerate(self.spans):
            agg = names.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "bytes": 0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += st[sid]
            if name == "layer.ssn_forward":
                forwards.setdefault(sid, set())
            if not extra:
                continue
            agg["bytes"] += extra.get("bytes", 0)
            if name == "simplex.sparsestmax":
                stages[extra["stage"]] = stages.get(extra["stage"], 0) + 1
                levels += extra["levels"]
                if parent >= 0 and self.spans[parent][0] == "layer.ssn_forward":
                    forwards.setdefault(parent, set()).update(extra["support"])
        active = [len(s) for s in forwards.values()]
        return {"names": names, "stages": stages, "levels": levels,
                "active_sum": sum(active), "active_calls": len(active),
                "active_seen": any(active), "missing": self.missing}


def merge_summaries(parts) -> dict:
    out = {"names": {}, "stages": {s: 0 for s in STAGES}, "levels": 0,
           "active_sum": 0, "active_calls": 0, "active_seen": False,
           "missing": sorted({m for p in parts for m in p["missing"]})}
    for p in parts:
        for name, agg in p["names"].items():
            dst = out["names"].setdefault(name, dict.fromkeys(agg, 0))
            for key, val in agg.items():
                dst[key] += val
        for stage, count in p["stages"].items():
            out["stages"][stage] = out["stages"].get(stage, 0) + count
        for key in ("levels", "active_sum", "active_calls"):
            out[key] += p[key]
        out["active_seen"] = out["active_seen"] or p["active_seen"]
    return out


def per_layer_metrics(summary, n_ops: int, traced_ms, untraced_ms,
                      copy_gbs) -> dict:
    """Per-layer metric values from merged trace summaries.

    A metric whose wrapped function is missing is None; one whose function
    exists but was not called on this workload is 0.  Stage shares and
    levels are per ``sparsestmax`` call, from the probe on its result."""
    names, missing = summary["names"], set(summary["missing"])
    op_s = names["op"]["total_s"]

    def get(name, key):
        if name in missing:
            return None
        return names.get(name, {}).get(key, 0)

    def per_op(name, key="self_s", scale=1e3):
        v = get(name, key)
        return None if v is None else scale * v / n_ops

    def per_call(name, scale):
        calls = get(name, "calls")
        return None if calls is None else (
            scale * get(name, "self_s") / calls if calls else 0.0)

    def gbs(name):
        b, s = get(name, "bytes"), get(name, "self_s")
        return None if b is None else (b / s / 1e9 if s else 0.0)

    def share(layer):
        present = [span_name(lyr, path) for lyr, _, path in TRACED
                   if lyr == layer and span_name(lyr, path) not in missing]
        if not present:
            return None
        return sum(get(n, "self_s") for n in present) / op_s

    sp, vjp = "simplex.sparsestmax", "simplex.sparsestmax_vjp"
    calls = get(sp, "calls")

    def per_projection(count):
        return None if calls is None else (count / calls if calls else 0.0)

    out = {
        "simplex.sparsestmax.calls_per_op": per_op(sp, "calls", 1.0),
        "simplex.sparsestmax.us_per_call": per_call(sp, 1e6),
        "simplex.sparsestmax_vjp.calls_per_op": per_op(vjp, "calls", 1.0),
        "simplex.sparsestmax_vjp.us_per_call": per_call(vjp, 1e6),
        "simplex.self_share": share("simplex"),
        "simplex.levels_per_call": per_projection(summary["levels"]),
    }
    for stage in STAGES:
        out[f"simplex.stage.{stage}"] = per_projection(summary["stages"].get(stage, 0))
    out.update({
        "layer.ssn_forward.self_ms_per_op": per_op("layer.ssn_forward"),
        "layer.ssn_backward.self_ms_per_op": per_op("layer.ssn_backward"),
        "layer.update_running_stats.self_ms_per_op":
            per_op("layer.update_running_stats"),
        "layer.self_share": share("layer"),
        "layer.ssn_forward.input_gbs": gbs("layer.ssn_forward"),
        "layer.ssn_backward.input_gbs": gbs("layer.ssn_backward"),
        "layer.active_normalizers_per_call":
            summary["active_sum"] / summary["active_calls"]
            if summary["active_seen"] else None,
        "machine.copy_gbs": copy_gbs,
        "training.train.self_ms_per_op": per_op("training.train"),
        "training.self_share": share("training"),
        "training.to_csv.ms_per_op": per_op("training.to_csv", "total_s"),
        "training.make_synthetic_dataset.ms_per_op":
            per_op("training.make_synthetic_dataset", "total_s"),
        "cli.main.self_ms_per_op": per_op("cli.main"),
        "trace.overhead_pct": 100.0 * (statistics.median(traced_ms) /
                                       statistics.median(untraced_ms) - 1.0),
    })
    return out
