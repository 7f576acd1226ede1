"""Tests of the benchmark's own machinery: output checks, self time, tail
percentile, tracer robustness and agreement with BENCHMARK.json."""
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

worker.import_package()

SMALL = (2, 8, 4, 4)


def _ready(cls, seed=3):
    wl = cls(seed, None, shape=SMALL, groups=2)
    wl.setup()
    wl.prepare_checks()
    return wl


@pytest.mark.parametrize("cls", [workloads.LayerTrain, workloads.Infer])
def test_clean_outputs_pass(cls):
    m = worker.measure(_ready(cls), 0.0)
    assert m.failed == 0 and m.attempted >= worker.MIN_OPS
    assert len(m.untraced) == len(m.untraced_raw) == len(m.cal_ms) == m.attempted
    assert m.traced == []


def test_traced_measure_alternates_and_restores():
    wl = _ready(workloads.Infer)
    layer = sys.modules["ssnorm.layer"]
    forward = layer.ssn_forward
    tracer = harness.Tracer()
    m = worker.measure(wl, 0.0, tracer)
    traced = m.traced
    assert m.failed == 0 and m.attempted % (2 * wl.cycle) == 0
    assert len(m.untraced) == len(traced) == m.attempted // 2
    assert layer.ssn_forward is forward
    summary = tracer.summary()
    assert summary["names"]["op"]["calls"] == len(traced)
    assert summary["names"]["layer.ssn_forward"]["calls"] == len(traced)
    assert summary["stages"]["Sparsemax"] == 2 * len(traced)
    assert summary["missing"] == []


def _corrupt_forward(out):
    y = out[0] if isinstance(out, tuple) else out
    y[0, 0, 0, 0] += 1e-9
    return out


def _corrupt_grad(out):
    out[1].x[1, 2, 3, 0] = np.nan
    return out


def _corrupt_beta(out):
    out[1].beta[0] += 1e-6
    return out


@pytest.mark.parametrize("cls,corrupt", [
    (workloads.LayerTrain, _corrupt_forward),
    (workloads.LayerTrain, _corrupt_grad),
    (workloads.LayerTrain, _corrupt_beta),
    (workloads.Infer, _corrupt_forward),
])
def test_corrupted_output_is_counted_as_failed(cls, corrupt):
    wl = _ready(cls)
    op = wl.op
    wl.op = lambda i: corrupt(op(i))
    m = worker.measure(wl, 0.0)
    assert m.failed == m.attempted == len(m.untraced) >= worker.MIN_OPS


def test_raising_op_is_counted_as_failed():
    wl = _ready(workloads.Infer)
    wl.op = lambda i: 1 / 0
    m = worker.measure(wl, 0.0)
    assert m.untraced == [] and m.failed == m.attempted


def test_toy_train_check(tmp_path):
    wl = workloads.ToyTrain(0, tmp_path)
    seed = wl.seeds[0]
    ok_stdout = json.dumps({"all_gates_one_hot": True}) + "\n"

    def check(csv: bytes, code=0, stdout=ok_stdout):
        (tmp_path / f"toy-train-{seed}.csv").write_bytes(csv)
        return wl.check(0, (seed, code, stdout))

    assert check(b"step,r\n0,0\n")                     # first run sets the reference
    assert check(b"step,r\n0,0\n")
    assert not check(b"step,r\n0,1\n")                 # bytes differ
    assert not check(b"step,r\n0,0\n", code=1)
    assert not check(b"step,r\n0,0\n", stdout='{"all_gates_one_hot": false}')
    assert not check(b"step,r\n0,0\n", stdout="")
    assert not wl.check(0, (seed, 0, ok_stdout))       # no CSV written


def test_normalise_cancels_host_speed():
    # A host twice as slow doubles both the op and its calibrations.
    assert harness.normalise(10.0, 4.0, 6.0, 5.0) == pytest.approx(10.0)
    assert harness.normalise(20.0, 8.0, 12.0, 5.0) == pytest.approx(10.0)
    # The same calibrations with a slower op: the slowdown shows in full.
    assert harness.normalise(13.0, 4.0, 6.0, 5.0) == pytest.approx(13.0)


def test_normalised_samples_follow_calibration(monkeypatch):
    wl = _ready(workloads.Infer)
    cal = iter([4.0, 8.0, 8.0, 4.0, 4.0, 4.0] * 4)
    monkeypatch.setattr(worker, "timed_ms", lambda fn: next(cal))
    m = worker.measure(wl, 0.0)
    for op_ms, norm, before, after in zip(m.untraced_raw, m.untraced,
                                          [4.0] + m.cal_ms, m.cal_ms):
        assert norm == pytest.approx(op_ms * wl.CAL_REF_MS / ((before + after) / 2))


def test_self_time_on_synthetic_tree():
    spans = {
        0: (-1, 0.0, 10.0),
        1: (0, 1.0, 4.0),
        2: (0, 3.0, 6.0),    # overlaps its sibling: covered once
        3: (1, 2.0, 3.0),    # grandchild: only its parent subtracts it
        4: (0, 9.0, 12.0),   # runs past the parent's end: clipped
    }
    st = harness.self_times(spans)
    assert st == {0: pytest.approx(4.0), 1: pytest.approx(2.0),
                  2: pytest.approx(3.0), 3: pytest.approx(1.0),
                  4: pytest.approx(3.0)}


@pytest.mark.parametrize("n,index,pct", [
    (11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_percentile(n, index, pct):
    samples = list(range(n))[::-1]
    value, percentile, count = harness.tail(samples)
    assert (value, count) == (index, n)
    assert percentile == pytest.approx(pct)
    assert sum(s > value for s in samples) == harness.MIN_BEYOND


def test_tail_needs_more_samples_than_min_beyond():
    with pytest.raises(ValueError):
        harness.tail(range(10))


def _fake_module(name):
    mod = types.ModuleType(name)
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
    sys.modules[name] = mod
    return mod


def test_tracer_spans_and_missing_names():
    mod = _fake_module("ssnorm_benchfake")
    try:
        targets = [("fake", mod.__name__, "outer"), ("fake", mod.__name__, "inner"),
                   ("fake", mod.__name__, "removed"),
                   ("fake", "ssnorm_no_such_module", "f")]
        orig = mod.outer
        tracer = harness.Tracer()
        tracer.install(targets)
        assert tracer.op(7, lambda: mod.outer(1)) == 4
        tracer.uninstall()
        assert mod.outer is orig
        assert tracer.missing == ["fake.removed", "fake.f"]
        names = [(s[0], s[1], s[2]) for s in tracer.spans]
        assert names == [("op", -1, 7), ("fake.outer", 0, 7), ("fake.inner", 1, 7)]
        summary = tracer.summary()
        assert summary["names"]["fake.inner"]["calls"] == 1
    finally:
        del sys.modules["ssnorm_benchfake"]


def test_removed_function_reports_null():
    summary = harness.merge_summaries([{
        "names": {"op": {"calls": 2, "total_s": 1.0, "self_s": 0.0, "bytes": 0},
                  "layer.ssn_forward": {"calls": 2, "total_s": 0.5,
                                        "self_s": 0.4, "bytes": 800}},
        "stages": {}, "levels": 0, "active_sum": 0, "active_calls": 2,
        "active_seen": False,
        "missing": ["simplex.sparsestmax", "simplex.sparsestmax_vjp"]}])
    vals = harness.per_layer_metrics(summary, 2, [1.0], [1.0], 5.0)
    assert set(vals) == {m.name for m in harness.PER_LAYER}
    assert vals["simplex.sparsestmax.us_per_call"] is None
    assert vals["simplex.self_share"] is None
    assert vals["simplex.stage.Circle"] is None
    assert vals["layer.active_normalizers_per_call"] is None
    assert vals["layer.ssn_forward.self_ms_per_op"] == pytest.approx(200.0)
    assert vals["layer.ssn_backward.self_ms_per_op"] == 0
    assert vals["layer.ssn_forward.input_gbs"] == pytest.approx(800 / 0.4 / 1e9)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, catalogue in (("end_to_end", harness.END_TO_END),
                           ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in catalogue]
