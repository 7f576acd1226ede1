"""The benchmark's tracer finds the functions it wraps, and its trace
probe reads the projection record.

The tracer in ``bench/harness.py`` treats an ``AttributeError`` from a
probe as "no data", so a record that lost a field the probe reads would
zero the traced stage shares without failing a benchmark test."""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
from ssnorm.simplex import Stage, circumradius, sparsestmax  # noqa: E402

# One (z, r) per stage: the README's Face example, its sparsemax and its
# one-hot limit, and a push that stays inside the simplex.
CASES = {
    Stage.SPARSEMAX: ([0.8, 0.6, 0.1], 0.2),
    Stage.CIRCLE: ([0.4, 0.35, 0.3], 0.2),
    Stage.FACE: ([0.5, 0.3, 0.2], 0.6),
    Stage.VERTEX: ([0.5, 0.3, 0.2], circumradius(3)),
}


@pytest.mark.parametrize("stage", list(Stage), ids=lambda s: s.value)
def test_probe_reads_projection_record(stage):
    res = sparsestmax(*CASES[stage])
    assert res.stage == stage
    probe = harness.PROBES["simplex.sparsestmax"]
    assert probe((), {}, res) == {"stage": stage.value, "levels": len(res.levels),
                                  "support": np.flatnonzero(res.p).tolist()}


def test_tracer_finds_every_traced_function():
    # A renamed or deleted traced function reads as a null metric in the
    # benchmark report rather than as an error.
    tracer = harness.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
