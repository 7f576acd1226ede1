"""Tests for the gated normalization layer: forward against a scalar-loop
oracle, exact backward against finite differences, running statistics
and convolution folding."""
import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from reference import central_difference, conv2d, forward_oracle, plain_moments
from ssnorm import layer
from ssnorm.errors import (InvalidInputError, InvalidStateError,
                           NotConvergedError)
from ssnorm.layer import (EVAL, TRAIN, GateParams, SsnParams,
                          benchmark_forward, fold_bn_into_affine,
                          select_normalizer, ssn_backward, ssn_forward,
                          update_running_stats, validate_omega)
from ssnorm.simplex import circumradius, is_smooth_point, sparsestmax


def _rand_params(rng, c, k, mode=TRAIN):
    gate = GateParams(z_mean=rng.normal(size=k), z_var=rng.normal(size=k))
    params = SsnParams(gate=gate, gamma=rng.normal(size=c) + 1.0,
                       beta=rng.normal(size=c))
    params.mode = mode
    return params


def _bn_selected_params(c):
    params = SsnParams.init(c, 3)
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.gate.frozen_mean = params.gate.frozen_var = True
    return params


# ------------------------------------------------------------- statistics

def test_statistics_match_nested_loops():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 2, 5))
    n, c, h, w = x.shape
    groups = 2
    # Uniform logits at r = 0 keep every normalizer active.
    _, cache = ssn_forward(x, SsnParams.init(c, 4), 0.0,
                           ("IN", "BN", "LN", "GN"), groups)

    mu, var = (s.reshape(n, c) for s in cache.stats["IN"])
    for i in range(n):
        for j in range(c):
            vals = [x[i, j, a, b] for a in range(h) for b in range(w)]
            m = sum(vals) / len(vals)
            v = sum((u - m) ** 2 for u in vals) / len(vals)
            assert abs(mu[i, j] - m) <= 1e-12
            assert abs(var[i, j] - v) <= 1e-12

    mu, var = (s.reshape(c) for s in cache.stats["BN"])
    for j in range(c):
        vals = [x[i, j, a, b] for i in range(n) for a in range(h) for b in range(w)]
        m = sum(vals) / len(vals)
        v = sum((u - m) ** 2 for u in vals) / len(vals)
        assert abs(mu[j] - m) <= 1e-12
        assert abs(var[j] - v) <= 1e-12

    mu, var = (s.reshape(n) for s in cache.stats["LN"])
    for i in range(n):
        vals = [x[i, j, a, b] for j in range(c) for a in range(h) for b in range(w)]
        m = sum(vals) / len(vals)
        v = sum((u - m) ** 2 for u in vals) / len(vals)
        assert abs(mu[i] - m) <= 1e-12
        assert abs(var[i] - v) <= 1e-12

    per = c // groups
    mu, var = (s.reshape(n, groups) for s in cache.stats["GN"])
    for i in range(n):
        for g in range(groups):
            vals = [x[i, j, a, b] for j in range(g * per, (g + 1) * per)
                    for a in range(h) for b in range(w)]
            m = sum(vals) / len(vals)
            v = sum((u - m) ** 2 for u in vals) / len(vals)
            assert abs(mu[i, g] - m) <= 1e-12
            assert abs(var[i, g] - v) <= 1e-12


def test_stats_gn_rejects_indivisible_groups():
    x = np.zeros((1, 6, 2, 2))
    with pytest.raises(InvalidInputError):
        ssn_forward(x, SsnParams.init(6, 4), 0.0, ("IN", "BN", "LN", "GN"), 4)
    # A group count that is not an integer is rejected by name where GN
    # reads it, and ignored without GN.
    for groups in (2.0, True, "2"):
        with pytest.raises(InvalidInputError, match="gn_groups must be integral"):
            ssn_forward(x, SsnParams.init(6, 4), 0.0, ("IN", "BN", "LN", "GN"), groups)
        ssn_forward(x, SsnParams.init(6, 3), 0.0, ("IN", "BN", "LN"), groups)
    ssn_forward(x, SsnParams.init(6, 4), 0.0, ("IN", "BN", "LN", "GN"), np.int64(2))


def test_validate_omega():
    assert validate_omega(["IN", "BN", "LN"]) == ("IN", "BN", "LN")
    assert validate_omega(("BN", "GN")) == ("BN", "GN")
    for bad in (["IN"], ["IN", "XX"], ["IN", "IN"], ["BN", "IN"]):
        with pytest.raises(InvalidInputError):
            validate_omega(bad)


# ---------------------------------------------------------------- forward

# Mean gate on {IN, LN}, variance gate on BN: the forward skips the IN and
# LN variances.
DISJOINT_GATES = (np.array([1.0, -2.0, 0.8]), np.array([-2.0, 1.0, -2.0]))

# Random gates on each omega, then the disjoint gates.  The first two ids
# are the ones these cases had before the disjoint case joined them.
GATE_CASES = [
    pytest.param(("IN", "BN", "LN"), 1, None, id="omega0-1"),
    pytest.param(("IN", "BN", "LN", "GN"), 2, None, id="omega1-2"),
    pytest.param(("IN", "BN", "LN"), 1, DISJOINT_GATES, id="disjoint-gates"),
]


def _set_gates(params, gates):
    if gates is not None:
        params.gate.z_mean, params.gate.z_var = (z.copy() for z in gates)


@pytest.mark.parametrize("omega,gn_groups,gates", GATE_CASES)
def test_forward_matches_scalar_oracle(omega, gn_groups, gates):
    rng = np.random.default_rng(42)
    for r in (0.0, 0.2, 0.5):
        x = rng.normal(size=(2, 2, 2, 2))
        params = _rand_params(rng, 2, len(omega))
        _set_gates(params, gates)
        y, _ = ssn_forward(x, params, r, omega, gn_groups)
        y_ref = forward_oracle(x, params, r, omega, gn_groups)
        assert np.max(np.abs(y - y_ref)) <= 1e-12


def test_one_hot_gates_reproduce_plain_normalizers():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4, 5, 5))
    omega = ("IN", "BN", "LN", "GN")
    gn_groups = 2
    for hot, name in enumerate(omega):
        params = SsnParams.init(4, 4)
        params.gate.z_mean = np.where(np.arange(4) == hot, 5.0, 0.0)
        params.gate.z_var = params.gate.z_mean.copy()
        y, cache = ssn_forward(x, params, circumradius(4), omega, gn_groups)
        mu, var = plain_moments(x, name, gn_groups)
        y_ref = (x - mu[:, :, None, None]) / \
            np.sqrt(var[:, :, None, None] + params.eps)
        assert np.max(np.abs(y - y_ref)) <= 1e-12
        # Statistics computed for exactly the selected normalizer.
        assert set(cache.stats) == {name}


def test_forward_skips_unused_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 4, 3, 3))
    params = SsnParams.init(4, 3)
    # Gates picking different normalizers: both get computed, third does not.
    params.gate.z_mean = np.array([5.0, 0.0, 0.0])
    params.gate.z_var = np.array([0.0, 5.0, 0.0])
    _, cache = ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))
    assert set(cache.stats) == {"IN", "BN"}
    # Only the variance gate's normalizers get a variance.
    assert cache.stats["IN"][1] is None


def test_train_mode_bn_outside_the_variance_gate_has_no_variance():
    # Only the mean gate selects BN, so in train mode as in eval mode its
    # variance is not computed.
    x = np.random.default_rng(4).normal(size=(3, 4, 3, 3))
    params = SsnParams.init(4, 3)
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = np.array([5.0, 0.0, 0.0])
    _, cache = ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))
    assert set(cache.stats) == {"IN", "BN"}
    assert cache.stats["BN"][1] is None
    bn_mean = cache.stats["BN"][0].reshape(-1)
    assert np.max(np.abs(bn_mean - x.mean(axis=(0, 2, 3)))) <= 1e-15


def test_eval_mode_bn_uses_running_stats():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 4, 4))
    params = SsnParams.init(3, 3)
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.bn_running_mean = np.array([1.0, -2.0, 0.5])
    params.bn_running_var = np.array([4.0, 0.25, 1.0])
    params.mode = EVAL
    y, _ = ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))
    y_ref = (x - params.bn_running_mean[None, :, None, None]) / \
        np.sqrt(params.bn_running_var[None, :, None, None] + params.eps)
    assert np.max(np.abs(y - y_ref)) <= 1e-12
    # Identical bytes across repeated eval calls.
    y2, _ = ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))
    assert y.tobytes() == y2.tobytes()


def test_forward_large_mean_matches_extended_precision():
    rng = np.random.default_rng(15)
    omega = ("IN", "BN", "LN", "GN")
    gn_groups = 3
    x = 1e3 + rng.normal(size=(4, 6, 5, 5))
    params = _rand_params(rng, 6, 4)
    r = 0.2
    y, _ = ssn_forward(x, params, r, omega, gn_groups)

    xl = x.astype(np.longdouble)
    p = sparsestmax(params.gate.z_mean, r).p
    pp = sparsestmax(params.gate.z_var, r).p
    mu = np.zeros(x.shape[:2], dtype=np.longdouble)
    var = np.zeros(x.shape[:2], dtype=np.longdouble)
    for i, name in enumerate(omega):
        m, v = plain_moments(xl, name, gn_groups)
        mu += p[i] * m
        var += pp[i] * v
    mu, var = mu[:, :, None, None], var[:, :, None, None]
    gamma = params.gamma.astype(np.longdouble)[None, :, None, None]
    beta = params.beta.astype(np.longdouble)[None, :, None, None]
    y_ref = gamma * (xl - mu) / np.sqrt(var + params.eps) + beta
    assert float(np.max(np.abs(y - y_ref))) <= 1e-11


def test_recentred_variances_match_extended_precision(monkeypatch):
    # With every normalizer active, the train-mode forward pools each
    # variance from rows centered on their own means; a large offset would
    # expose a wrong shift.  At 1e6, E[x^2] - E[x]^2 would keep about 4 of
    # float64's 16 digits, so every variance, BN's batch variance included,
    # must come from squares about a mean; the layer's worst relative error
    # there is about 2.6e-16, and the long-double oracle's own is far below
    # it.  The last input spans eight one-sample blocks that two workers
    # share, so each pooled variance sums rows of several blocks.
    omega = ("IN", "BN", "LN", "GN")
    cases = [(1e3, (4, 6, 5, 5), 3), (1e6, (4, 6, 5, 5), 3), (1e6, (8, 64, 28, 28), 8)]
    for offset, shape, gn_groups in cases:
        x = offset + np.random.default_rng(19).normal(size=shape)
        if shape[0] == 8:
            monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
            monkeypatch.setattr(layer, "WORKERS", 2)
        _, cache = ssn_forward(x, SsnParams.init(shape[1], 4), 0.0, omega, gn_groups)
        assert set(cache.stats) == set(omega)
        xl = x.astype(np.longdouble)
        for name in omega:
            var = np.broadcast_to(cache.stats[name][1], cache.view[:3] + (1,)).reshape(shape[:2])
            ref = plain_moments(xl, name, gn_groups)[1]
            assert float(np.max(np.abs(var - ref) / ref)) <= 1e-12, (offset, shape, name)


def test_eval_mode_mixed_selection_uses_running_stats():
    rng = np.random.default_rng(16)
    x = rng.normal(loc=0.5, size=(3, 4, 3, 3))
    params = _rand_params(rng, 4, 3, mode=EVAL)
    params.gate.z_mean = np.array([0.0, 0.0, 5.0])
    params.gate.z_var = np.array([0.0, 5.0, 0.0])
    params.bn_running_mean = rng.normal(size=4)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=4)
    y, cache = ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))
    mu = x.mean(axis=(1, 2, 3))[:, None, None, None]
    var = params.bn_running_var[None, :, None, None]
    y_ref = params.gamma[None, :, None, None] * (x - mu) / \
        np.sqrt(var + params.eps) + params.beta[None, :, None, None]
    assert np.max(np.abs(y - y_ref)) <= 1e-12
    assert set(cache.stats) == {"BN", "LN"}
    # The BN statistics are the running averages themselves.
    assert np.array_equal(cache.stats["BN"][0].reshape(-1), params.bn_running_mean)
    assert np.array_equal(cache.stats["BN"][1].reshape(-1), params.bn_running_var)


# Tensors of 1x4x2x2 that are not real numbers, with their dtypes.
NOT_REAL = [(np.ones((1, 4, 2, 2)) * (1 + 1j), "complex128"),
            (np.full((1, 4, 2, 2), "1.0"), "<U3"),
            (np.ones((1, 4, 2, 2), dtype=bool), "bool"),
            (np.full((1, 4, 2, 2), None), "object")]


def test_forward_validates_shapes():
    params = SsnParams.init(4, 3)
    with pytest.raises(InvalidInputError):
        ssn_forward(np.zeros((2, 3)), params, 0.1, ("IN", "BN", "LN"))
    with pytest.raises(InvalidInputError):
        ssn_forward(np.zeros((1, 5, 2, 2)), params, 0.1, ("IN", "BN", "LN"))
    bad = SsnParams.init(4, 2)
    with pytest.raises(InvalidInputError):
        ssn_forward(np.zeros((1, 4, 2, 2)), bad, 0.1, ("IN", "BN", "LN"))
    for empty in ((0, 4, 2, 2), (2, 4, 0, 2)):
        with pytest.raises(InvalidInputError, match="must be non-empty"):
            ssn_forward(np.zeros(empty), params, 0.1, ("IN", "BN", "LN"))
    # A complex x lost its imaginary part with a ComplexWarning, and a
    # string raised numpy's bare ValueError; a list of numbers passes.
    for bad, dtype in NOT_REAL:
        with pytest.raises(InvalidInputError,
                           match=f"activation tensor must be real numbers, got dtype {dtype}"):
            ssn_forward(bad, params, 0.1, ("IN", "BN", "LN"))
    y, _ = ssn_forward(np.ones((1, 4, 2, 2)).tolist(), params, 0.1, ("IN", "BN", "LN"))
    assert y.shape == (1, 4, 2, 2)


def _pass_names(monkeypatch, calls=None):
    """Record the name of each full-tensor pass the layer runs and, given a
    list, append to it one (name, blocks) entry per pass, where ``blocks``
    gets the (lo, hi) of each call of the pass and the ufunc buffer size
    the call runs under."""
    names = []
    run = layer._map_samples

    def recording(fn, view):
        names.append(fn.__name__)
        if calls is None:
            return run(fn, view)
        blocks = []
        calls.append((fn.__name__, blocks))

        def block(lo, hi):
            blocks.append((lo, hi, np.getbufsize()))
            return fn(lo, hi)
        return run(block, view)
    monkeypatch.setattr(layer, "_map_samples", recording)
    return names


# Per omega, the (mean, variance) selections: None is r = 0 with every
# normalizer active, then each one-hot and two disjoint pairs.
FINITENESS_CASES = [
    pytest.param(omega, gates, id=f"{'-'.join(omega)}:{'-'.join(gates or ['r0'])}")
    for omega in (("IN", "BN", "LN"), ("IN", "BN", "LN", "GN"))
    for gates in [None, *((name, name) for name in omega), ("LN", "BN"), ("BN", "IN")]]


def _isfinite_sizes(monkeypatch):
    """Record the size of each array ``np.isfinite`` reads."""
    sizes = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: sizes.append(np.size(a)) or isfinite(a))
    return sizes


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
@pytest.mark.parametrize("omega,gates", FINITENESS_CASES)
def test_forward_rejects_non_finite_input(monkeypatch, omega, gates, mode):
    # Finiteness is read off the total of x's row sums, which every forward
    # takes, one-hot BN in eval mode too.
    k = len(omega)
    params = _rand_params(np.random.default_rng(17), 4, k, mode=mode)
    r = 0.0
    if gates is not None:
        params.gate.z_mean, params.gate.z_var = (
            np.where(np.arange(k) == omega.index(name), 5.0, 0.0) for name in gates)
        r = circumradius(k)
    x = np.random.default_rng(18).normal(size=(3, 4, 3, 3))
    nan_last = x.copy()
    nan_last[-1, -1, -1, -1] = np.nan
    inf_pair = x.copy()
    inf_pair[1, 2, 0, 0], inf_pair[1, 2, 2, 1] = np.inf, -np.inf
    lone_neg_inf = x.copy()
    lone_neg_inf[0, 3, 1, 2] = -np.inf
    for bad in (nan_last, inf_pair, lone_neg_inf):
        with pytest.raises(InvalidInputError, match="activation tensor must be finite"):
            ssn_forward(bad, params, r, omega, 2)
    # A finite x whose sums overflow is not rejected; its output may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ssn_forward(np.where(x > 0, 1e308, -1e308), params, r, omega, 2)
    # Variances that overflow while the row sums stay finite make no
    # element-wise check of x; row sums that overflow make it, and the
    # finite x passes it.
    sizes = _isfinite_sizes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, cache = ssn_forward(np.where(x > 0, 1e200, -1e200), params, r, omega, 2)
        assert x.size not in sizes, sizes
        assert all(np.isinf(var).any() for name, (_, var) in cache.stats.items()
                   if var is not None and (name, mode) != ("BN", EVAL))
        ssn_forward(np.full(x.shape, 1e308), params, r, omega, 2)
        assert x.size in sizes


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
def test_overflowing_output_warns_under_the_callers_error_state(mode):
    # The statistics ignore overflow and invalid values, but the scale and
    # shift run under the caller's error state: a finite x whose row sums
    # overflow gives a (IN, IN) layer inf - inf in its shift and inf * 0 in
    # its scale, and the caller sees both.
    params = SsnParams.init(4, 3)
    params.gate.z_mean = np.array([5.0, 0.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.mode = mode
    x = np.random.default_rng(35).normal(size=(3, 4, 3, 3))
    with pytest.warns(RuntimeWarning) as record:
        ssn_forward(np.where(x > 0, 1e308, -1e308), params, circumradius(3),
                    ("IN", "BN", "LN"))
    assert len(record) == 2, [str(w.message) for w in record]
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        ssn_forward(np.where(x > 0, 1e308, -1e308), params, circumradius(3),
                    ("IN", "BN", "LN"))


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
def test_callers_error_state_reaches_the_pool(monkeypatch, mode):
    # With one-sample blocks the forward's passes run in the pool, and the
    # pool threads take the caller's error state as the calling thread does.
    monkeypatch.setattr(layer, "WORKERS", 2)
    params = SsnParams.init(4, 3)
    params.gate.z_mean = np.array([5.0, 0.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.mode = mode
    x = np.random.default_rng(35).normal(size=(4, 4, 3, 3))
    x = np.where(x > 0, 1e308, -1e308)
    monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))
    with np.errstate(invalid="ignore", over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        ssn_forward(x, params, circumradius(3), ("IN", "BN", "LN"))


# Every layer entry point, as (mode, call) on a 4-channel (BN, BN) layer
# over IN, BN and LN; the constructor re-runs on the reassigned fields.
ENTRY_POINTS = {
    "constructor": (TRAIN, dataclasses.replace),
    "forward-train": (TRAIN, lambda p: ssn_forward(np.ones((2, 4, 3, 3)), p, 0.1,
                                                   ("IN", "BN", "LN"))),
    "forward-eval": (EVAL, lambda p: ssn_forward(np.ones((2, 4, 3, 3)), p, 0.1,
                                                 ("IN", "BN", "LN"))),
    "select": (EVAL, lambda p: select_normalizer(p, ("IN", "BN", "LN"))),
    "fold": (EVAL, lambda p: fold_bn_into_affine(np.ones((4, 3, 1, 1)), None, p,
                                                 ("IN", "BN", "LN"))),
}


def _broken_params(mode, fields):
    """The (BN, BN) layer in ``mode`` with ``fields`` reassigned after
    construction; z_mean and z_var go to its gate."""
    params = _bn_selected_params(4)
    params.mode = mode
    for field, value in fields.items():
        setattr(params.gate if field.startswith("z_") else params, field, value)
    return params


def _rejected_at_every_entry_point(fields, match, skip=()):
    for entry, (mode, call) in ENTRY_POINTS.items():
        if entry not in skip:
            with pytest.raises(InvalidInputError, match=match):
                call(_broken_params(mode, fields))


# A field reassigned after construction: (field, value); the error must
# name the field.
BROKEN_FIELDS = {
    "short gamma": ("gamma", np.ones(1)),
    "short beta": ("beta", np.zeros(1)),
    "short running mean": ("bn_running_mean", np.zeros(1)),
    "short running var": ("bn_running_var", np.ones(1)),
    "negative running var": ("bn_running_var", np.array([1.0, -1e-3, 1.0, 1.0])),
    "NaN running mean": ("bn_running_mean", np.array([0.0, np.nan, 0.0, 0.0])),
    "NaN beta": ("beta", np.array([0.0, np.nan, 0.0, 0.0])),
    "inf gamma": ("gamma", np.array([1.0, np.inf, 1.0, 1.0])),
    "inf running var": ("bn_running_var", np.array([1.0, np.inf, 1.0, 1.0])),
    "eps 0": ("eps", 0.0),
    "eps NaN": ("eps", float("nan")),
    # A string or None raised a bare TypeError, and True was taken as 1.0.
    "eps string": ("eps", "1e-5"),
    "eps None": ("eps", None),
    "eps True": ("eps", True),
    "mode evl": ("mode", "evl"),
    "long z_mean": ("z_mean", np.zeros(4)),
    "short z_var": ("z_var", np.zeros(2)),
    # A string raised numpy's bare ValueError from the projection, a complex
    # lost its imaginary part with a ComplexWarning, a bool was taken as
    # 1.0 or 0.0, and NaN was rejected without naming the field.
    "string z_mean": ("z_mean", np.array(["a", "b", "c"])),
    "complex z_var": ("z_var", np.array([0.0, 5.0 + 1j, 0.0])),
    "bool z_mean": ("z_mean", np.array([False, True, False])),
    "NaN z_var": ("z_var", np.array([0.0, np.nan, 0.0])),
    # A complex raised a bare TypeError from the finiteness check.
    "complex gamma": ("gamma", np.ones(4) + 1j),
    "string running var": ("bn_running_var", np.full(4, "1")),
}


@pytest.mark.parametrize("broken", BROKEN_FIELDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_checks_params(entry, broken):
    mode, call = ENTRY_POINTS[entry]
    field, value = BROKEN_FIELDS[broken]
    with pytest.raises(InvalidInputError, match=field):
        call(_broken_params(mode, {field: value}))


@pytest.mark.parametrize("args,named", [
    ((4.0, 3), "channels"), ((0, 3), "channels"), ((4, 3.0), "k"), ((4, True), "k"),
    ((4, 3, "a"), "z_init"), ((4, 3, float("nan")), "z_init"),
])
def test_init_rejects_arguments_that_are_not_numbers(args, named):
    # 4.0 raised numpy's TypeError, and z_init "a" built string logits that
    # only the forward rejected.
    with pytest.raises(InvalidInputError, match=f"{named} must be"):
        SsnParams.init(*args)


# Each test below breaks one kind of field, once per value, and checks that
# every entry point rejects it.

@pytest.mark.parametrize("mode", ["evl", "Train", "", None])
def test_forward_rejects_unknown_mode(mode):
    # Any mode other than "eval" once ran silently on batch BN statistics.
    _rejected_at_every_entry_point({"mode": mode}, "mode")


@pytest.mark.parametrize("name", ["bn_running_mean", "bn_running_var"])
@pytest.mark.parametrize("shape", [(5,), (3,), (1, 4), ()])
def test_forward_checks_running_stats_shape(name, shape):
    # Fields are reassigned after construction, so every entry point checks.
    _rejected_at_every_entry_point({name: np.ones(shape)}, f"running statistics: {name}")


@pytest.mark.parametrize("name", ["gamma", "beta", "bn_running_mean", "bn_running_var"])
@pytest.mark.parametrize("shape", [(5,), (3,), (1, 4), ()])
def test_params_check_vector_lengths(name, shape):
    _rejected_at_every_entry_point({name: np.ones(shape)}, name)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-5])
def test_params_require_finite_positive_eps(eps):
    _rejected_at_every_entry_point({"eps": eps}, "eps")


def test_select_normalizer_checks_gate_length():
    # Both gates are one normalizer too long for omega.  On its own that is
    # a valid 4-normalizer layer, which the constructor accepts; every entry
    # point that is given omega rejects it.
    fields = {"z_mean": np.zeros(4), "z_var": np.zeros(4)}
    dataclasses.replace(_broken_params(TRAIN, fields))
    _rejected_at_every_entry_point(fields, "gate logits length", skip=("constructor",))


# --------------------------------------------------------------- backward

def _loss_and_grads(x, params, r, omega, gn_groups, w_loss):
    y, cache = ssn_forward(x, params, r, omega, gn_groups)
    loss = float((y * w_loss).sum())
    grads = ssn_backward(cache, w_loss)
    return loss, grads


def _smooth_gate_params(rng, c, k, r):
    while True:
        params = _rand_params(rng, c, k)
        if is_smooth_point(params.gate.z_mean, r) and \
                is_smooth_point(params.gate.z_var, r):
            return params


@pytest.mark.parametrize("omega,gn_groups,gates", GATE_CASES)
def test_backward_matches_finite_differences(omega, gn_groups, gates):
    rng = np.random.default_rng(7)
    k = len(omega)
    r = 0.25
    x = rng.normal(size=(2, 4, 3, 3))
    params = _smooth_gate_params(rng, 4, k, r)
    _set_gates(params, gates)
    assert is_smooth_point(params.gate.z_mean, r)
    assert is_smooth_point(params.gate.z_var, r)
    w_loss = rng.normal(size=x.shape)
    _, grads = _loss_and_grads(x, params, r, omega, gn_groups, w_loss)
    eps = 1e-5

    def loss():
        return _loss_and_grads(x, params, r, omega, gn_groups, w_loss)[0]

    # Input gradient on a random subset of elements.
    flat_idx = rng.choice(x.size, size=8, replace=False)
    fd_x = central_difference(loss, x, eps, flat_idx)
    got_x = grads.x.flat[flat_idx]
    assert np.max(np.abs(got_x - fd_x)) <= 1e-4 * max(1.0, np.abs(fd_x).max())

    for name, vec in [("gamma", params.gamma), ("beta", params.beta),
                      ("z_mean", params.gate.z_mean), ("z_var", params.gate.z_var)]:
        got = getattr(grads, name)
        ref = central_difference(loss, vec, eps)
        denom = max(np.linalg.norm(ref), 1e-3)
        assert np.linalg.norm(got - ref) <= 1e-4 * denom, name


def test_backward_zero_ratio_gets_zero_logit_gradient():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 4, 3, 3))
    params = SsnParams.init(4, 3)
    params.gate.z_mean = np.array([1.0, 0.5, -2.0])
    params.gate.z_var = np.array([1.0, 0.5, -2.0])
    r = 0.5
    p = sparsestmax(params.gate.z_mean, r).p
    assert p[2] == 0.0
    y, cache = ssn_forward(x, params, r, ("IN", "BN", "LN"))
    grads = ssn_backward(cache, rng.normal(size=x.shape))
    assert grads.z_mean[2] == 0.0
    assert grads.z_var[2] == 0.0


@pytest.mark.parametrize("omega", [("IN", "BN", "LN"), ("IN", "BN", "LN", "GN")],
                         ids="-".join)
def test_backward_one_hot_gates_get_exact_zeros(omega):
    # The trainer freezes a gate on its first one-hot ratio and relies on
    # the projection alone to give that gate all-zero logit gradients: the
    # layer sees no freeze flag.  Every pair of hot normalizers, unfrozen.
    rng = np.random.default_rng(10)
    k = len(omega)
    x = rng.normal(size=(2, 4, 3, 3))
    for hot_mean in range(k):
        for hot_var in range(k):
            params = _rand_params(rng, 4, k)
            params.gate.z_mean = np.where(np.arange(k) == hot_mean, 5.0, 0.0)
            params.gate.z_var = np.where(np.arange(k) == hot_var, 5.0, 0.0)
            assert not (params.gate.frozen_mean or params.gate.frozen_var)
            _, cache = ssn_forward(x, params, circumradius(k), omega, 2)
            assert cache.p_res.p.max() == cache.pp_res.p.max() == 1.0
            grads = ssn_backward(cache, rng.normal(size=x.shape))
            assert not grads.z_mean.any() and not grads.z_var.any(), (hot_mean, hot_var)


def test_freeze_flags_change_no_gradient_bit():
    # On live, non-degenerate gates, setting both freeze flags changes no
    # bit of the output or of any of the five gradients.
    rng = np.random.default_rng(23)
    omega = ("IN", "BN", "LN")
    r = 0.25
    x = rng.normal(size=(2, 4, 3, 3))
    g = rng.normal(size=x.shape)
    params = _rand_params(rng, 4, 3)
    params.gate.z_mean = np.array([0.9, 1.0, 1.2])
    params.gate.z_var = np.array([1.1, 0.8, 1.0])
    assert is_smooth_point(params.gate.z_mean, r) and is_smooth_point(params.gate.z_var, r)
    _, cache = ssn_forward(x, params, r, omega)
    assert min(np.count_nonzero(cache.p_res.p), np.count_nonzero(cache.pp_res.p)) > 1
    grads = ssn_backward(cache, g)
    assert grads.z_mean.any() and grads.z_var.any()
    live = _layer_bits(x, params, r, omega, 1, g)
    params.gate.frozen_mean = params.gate.frozen_var = True
    assert _layer_bits(x, params, r, omega, 1, g) == live


@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "live"])
def test_backward_rejects_non_finite_upstream(one_hot):
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 4, 3, 3))
    params = _rand_params(rng, 4, 3)
    if one_hot:
        params.gate.z_mean = params.gate.z_var = np.array([0.0, 5.0, 0.0])
        r = circumradius(3)
    else:
        params.gate.z_mean = 1.0 + 0.02 * rng.normal(size=3)
        params.gate.z_var = 1.0 + 0.02 * rng.normal(size=3)
        r = 0.1
    _, cache = ssn_forward(x, params, r, ("IN", "BN", "LN"))
    for res in (cache.p_res, cache.pp_res):
        assert (res.p.max() == 1.0) == one_hot
    g = rng.normal(size=x.shape)
    for index, value in [((0, 0, 0, 0), np.nan), ((2, 3, 2, 2), np.inf),
                         ((1, 2, 0, 1), -np.inf)]:
        bad = g.copy()
        bad[index] = value
        with pytest.raises(InvalidInputError, match="upstream tensor must be finite"):
            ssn_backward(cache, bad)
    inf_pair = g.copy()
    inf_pair[1, 1, 0, 0], inf_pair[1, 1, 2, 2] = np.inf, -np.inf
    with pytest.raises(InvalidInputError, match="upstream tensor must be finite"):
        ssn_backward(cache, inf_pair)
    # A finite g whose sums overflow is too large, not non-finite, and is
    # rejected as such with one-hot and live gates alike.
    huge = np.where(g > 0, 1e308, -1e308)
    with pytest.raises(InvalidInputError, match="upstream tensor is too large"):
        ssn_backward(cache, huge)
    for shape in ((3, 3, 3, 3), (3, 4, 9, 1), (4, 3, 3, 3)):
        with pytest.raises(InvalidInputError, match="upstream tensor shape"):
            ssn_backward(cache, np.zeros(shape))
    for bad, dtype in NOT_REAL:
        with pytest.raises(InvalidInputError,
                           match=f"upstream tensor must be real numbers, got dtype {dtype}"):
            ssn_backward(cache, np.resize(bad, x.shape))
    assert ssn_backward(cache, g.tolist()).x.shape == x.shape


def _layer_bits(x, params, r, omega, gn_groups, g=None):
    """y, every cached statistic and, given g, all five gradients, as bytes."""
    y, cache = ssn_forward(x, params, r, omega, gn_groups)
    bits = [y.tobytes()] + [None if s is None else s.tobytes()
                            for name in omega if name in cache.stats
                            for s in cache.stats[name]]
    if g is not None:
        grads = ssn_backward(cache, g)
        bits += [getattr(grads, f).tobytes()
                 for f in ("x", "gamma", "beta", "z_mean", "z_var")]
    return bits


def _recycle_all(monkeypatch) -> list:
    """Make every full-size output recycle, from no kept base; returns the
    list of kept bases."""
    monkeypatch.setattr(layer, "RECYCLE_BYTES", 0)
    return _no_kept_base(monkeypatch)


def _no_kept_base(monkeypatch) -> list:
    """Give this test a list of kept bases of its own; returns it."""
    monkeypatch.setattr(layer, "_kept", functools.cache(layer._kept.__wrapped__))
    return layer._kept(os.getpid())[1]


BLOCK_CASES = pytest.mark.parametrize("omega,gn_groups", [
    (("IN", "BN", "LN"), 1), (("IN", "BN", "LN", "GN"), 2)])


@BLOCK_CASES
def test_backward_does_not_depend_on_block_size(monkeypatch, omega, gn_groups):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5, 4, 3, 3))
    params = _rand_params(rng, 4, len(omega))
    _, cache = ssn_forward(x, params, 0.1, omega, gn_groups)
    g = rng.normal(size=x.shape)
    one_block = ssn_backward(cache, g)
    sample_bytes = x[0].nbytes
    calls = []
    _pass_names(monkeypatch, calls)
    for recycle in (False, True):
        if recycle:
            _recycle_all(monkeypatch)
        for samples, sizes in [(1, [1] * 5), (2, [2, 2, 1])]:
            monkeypatch.setattr(layer, "BLOCK_BYTES", samples * sample_bytes)
            for workers in (1, 2, 3):
                monkeypatch.setattr(layer, "WORKERS", workers)
                calls.clear()
                grads = ssn_backward(cache, g)
                if workers == 1:
                    assert [hi - lo for name, blocks in calls if name == "sweep_1"
                            for lo, hi, _ in blocks] == sizes
                for field in ("x", "gamma", "beta", "z_mean", "z_var"):
                    assert getattr(grads, field).tobytes() == \
                        getattr(one_block, field).tobytes(), \
                        (recycle, samples, workers, field)


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
@pytest.mark.parametrize("bn_only", [False, True], ids=["mixed", "bn-only"])
@BLOCK_CASES
def test_forward_does_not_depend_on_block_size(monkeypatch, omega, gn_groups,
                                               bn_only, mode):
    # Every statistic is a sum of per-row sums, so the bits depend on the
    # shape only, never on how the samples are cut between workers.
    rng = np.random.default_rng(24)
    k = len(omega)
    x = rng.normal(size=(5, 4, 3, 3))
    params = _rand_params(rng, 4, k, mode=mode)
    params.bn_running_mean = rng.normal(size=4)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=4)
    if bn_only:
        params.gate.z_mean = np.where(np.arange(k) == 1, 5.0, 0.0)
        params.gate.z_var = params.gate.z_mean.copy()
        r = circumradius(k)
    else:
        params.gate.z_mean = 1.0 + 0.02 * rng.normal(size=k)
        params.gate.z_var = 1.0 + 0.02 * rng.normal(size=k)
        r = 0.1
    one_block = _layer_bits(x, params, r, omega, gn_groups)
    assert len(one_block) == 1 + 2 * (1 if bn_only else k)
    for recycle in (False, True):
        if recycle:
            _recycle_all(monkeypatch)
        for samples in (1, 2):
            monkeypatch.setattr(layer, "BLOCK_BYTES", samples * x[0].nbytes)
            for workers in (1, 2, 3):
                monkeypatch.setattr(layer, "WORKERS", workers)
                assert _layer_bits(x, params, r, omega, gn_groups) == one_block, \
                    (recycle, samples, workers)


# ------------------------------------------------------ differential fuzz

# The 11 valid omegas: every ordered subset of two or more normalizers.
OMEGAS = [omega for k in (2, 3, 4)
          for omega in itertools.combinations(layer.NORMALIZER_ORDER, k)]


@st.composite
def layer_cases(draw):
    """(x, params, r, omega, gn_groups, g) of a small random layer: N, C, H
    and W in 1-5, any omega, a GN group count that divides C, either mode,
    and one-hot gates at the circumradius or random ones at any radius; g
    is the upstream gradient in train mode and None in eval mode."""
    n, c, h, w = (draw(st.integers(1, 5)) for _ in range(4))
    omega = draw(st.sampled_from(OMEGAS))
    k = len(omega)
    gn_groups = draw(st.sampled_from([d for d in range(1, c + 1) if c % d == 0]))
    mode = draw(st.sampled_from([TRAIN, EVAL]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = _rand_params(rng, c, k, mode=mode)
    params.bn_running_mean = rng.normal(size=c)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=c)
    if draw(st.booleans()):
        params.gate.z_mean, params.gate.z_var = (
            np.where(np.arange(k) == draw(st.integers(0, k - 1)), 5.0, 0.0)
            for _ in range(2))
        r = circumradius(k)
    else:
        # Nearly equal logits keep every normalizer live at most radii.
        spread = draw(st.sampled_from([0.02, 1.0]))
        params.gate.z_mean, params.gate.z_var = (1.0 + spread * rng.normal(size=k)
                                                 for _ in range(2))
        r = draw(st.floats(0.0, circumradius(k)))
    x = rng.normal(loc=draw(st.sampled_from([0.0, 3.0])), size=(n, c, h, w))
    g = rng.normal(size=x.shape) if mode == TRAIN else None
    return x, params, r, omega, gn_groups, g


@contextlib.contextmanager
def _blocks(workers, block_bytes):
    """Run the layer with ``WORKERS`` and ``BLOCK_BYTES`` set, then restore
    them; a context manager, because hypothesis runs many examples in one
    call of a test."""
    saved = layer.WORKERS, layer.BLOCK_BYTES
    layer.WORKERS, layer.BLOCK_BYTES = workers, block_bytes
    try:
        yield
    finally:
        layer.WORKERS, layer.BLOCK_BYTES = saved


@settings(max_examples=300, deadline=None, derandomize=True)
@given(layer_cases())
def test_forward_matches_oracle_on_random_layers(case):
    x, params, r, omega, gn_groups, _ = case
    y, _ = ssn_forward(x, params, r, omega, gn_groups)
    y_ref = forward_oracle(x, params, r, omega, gn_groups)
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * max(1.0, np.abs(y_ref).max())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layer_cases())
def test_random_layers_do_not_depend_on_blocks_or_workers(case):
    # y, every statistic and, in train mode, all five gradients.
    x, params, r, omega, gn_groups, g = case
    expected = _layer_bits(x, params, r, omega, gn_groups, g)
    for workers in (1, 2, 3):
        with _blocks(workers, x[0].nbytes):
            assert _layer_bits(x, params, r, omega, gn_groups, g) == expected, workers


# About one draw in eight is a train-mode layer with both gates smooth.
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(layer_cases())
def test_random_layers_backward_matches_central_differences(case):
    # Where both gates sit away from every stage boundary the layer is
    # smooth, so each of the five gradients of <y, g> matches central
    # differences on its first, middle and last entries.
    x, params, r, omega, gn_groups, g = case
    assume(g is not None and is_smooth_point(params.gate.z_mean, r) and
           is_smooth_point(params.gate.z_var, r))
    grads = ssn_backward(ssn_forward(x, params, r, omega, gn_groups)[1], g)

    def loss():
        return float((ssn_forward(x, params, r, omega, gn_groups)[0] * g).sum())
    for name, a in (("x", x), ("gamma", params.gamma), ("beta", params.beta),
                    ("z_mean", params.gate.z_mean), ("z_var", params.gate.z_var)):
        picks = sorted({0, a.size // 2, a.size - 1})
        fd = central_difference(loss, a, 1e-5, picks)
        got = getattr(grads, name).flat[picks]
        assert np.max(np.abs(got - fd)) <= 1e-4 * max(1.0, np.abs(fd).max()), \
            (name, got, fd)


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
def test_forward_cuts_a_pass_only_for_batch_statistics(monkeypatch, mode):
    # One pass per forward, but train-mode BN's moments need every sample's
    # row moments: two passes with BN live in either gate, its mean alone or
    # its variance.  Every one-hot pair, then every normalizer live.
    omega = ("IN", "BN", "LN", "GN")
    x = np.random.default_rng(33).normal(size=(2, 4, 3, 3))
    params = _rand_params(np.random.default_rng(34), 4, 4, mode=mode)
    names = _pass_names(monkeypatch)
    pairs = [(m, v) for m in range(4) for v in range(4)] + [None]
    for pair in pairs:
        if pair is None:
            params.gate.z_mean, params.gate.z_var = np.zeros(4), np.zeros(4)
            r = 0.0
        else:
            params.gate.z_mean, params.gate.z_var = (
                np.where(np.arange(4) == hot, 5.0, 0.0) for hot in pair)
            r = circumradius(4)
        names.clear()
        ssn_forward(x, params, r, omega, 2)
        bn_mean, bn_var = (True, True) if pair is None else (pair[0] == 1, pair[1] == 1)
        passes = 1 if mode == EVAL else 2 if bn_mean or bn_var else 1
        assert names == ["row_moments"][:passes - 1] + ["normalize"], \
            (pair, names)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_pass_walks_the_same_blocks(monkeypatch, workers):
    # One rule cuts every pass, forward and backward alike: each call of a
    # pass is one block of at most the block step's samples, and the calls
    # tile the N axis in the same ranges for every pass.
    monkeypatch.setattr(layer, "WORKERS", workers)
    rng = np.random.default_rng(32)
    omega = ("IN", "BN", "LN", "GN")
    x = rng.normal(size=(5, 4, 3, 3))
    params = _rand_params(rng, 4, 4)
    params.gate.z_mean = 1.0 + 0.02 * rng.normal(size=4)
    params.gate.z_var = 1.0 + 0.02 * rng.normal(size=4)
    g = rng.normal(size=x.shape)
    calls = []
    _pass_names(monkeypatch, calls)
    for step in (1, 2):
        monkeypatch.setattr(layer, "BLOCK_BYTES", step * x[0].nbytes)
        calls.clear()
        _, cache = ssn_forward(x, params, 0.1, omega, 2)
        ssn_backward(cache, g)
        assert [name for name, _ in calls] == [
            "row_moments", "normalize", "sweep_1", "sweep_2"]
        tilings = set()
        for name, blocks in calls:
            ranges = [(lo, hi) for lo, hi, _ in blocks]
            if workers == 1:
                assert ranges == sorted(ranges), name
            ranges.sort()
            assert all(0 < hi - lo <= step for lo, hi in ranges), (name, ranges)
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            assert ranges[-1][1] == len(x), (name, ranges)
            tilings.add(tuple(ranges))
        assert len(tilings) == 1, (step, tilings)


def test_toy_shapes_run_in_the_calling_thread(monkeypatch):
    # A tensor that fits in one block never makes (or imports) the pool: the
    # toy's 40-sample batches and its 200-sample closing forward are such.
    calls = []
    executor = layer._executor
    monkeypatch.setattr(layer, "_executor", lambda workers, pid: calls.append(workers) or
                        executor(workers, pid))
    monkeypatch.setattr(layer, "WORKERS", 2)
    rng = np.random.default_rng(25)
    omega = ("IN", "BN", "LN", "GN")
    for n in (40, 200):
        x = rng.normal(size=(n, 8, 8, 8))
        assert x.nbytes <= layer.BLOCK_BYTES
        _, cache = ssn_forward(x, _rand_params(rng, 8, 4), 0.0, omega, 2)
        ssn_backward(cache, rng.normal(size=x.shape))
        ssn_forward(x, _rand_params(rng, 8, 4, mode=EVAL), 0.0, omega, 2)
    assert calls == []
    # Past one block the passes go to the pool.
    x = rng.normal(size=(5, 8, 8, 8))
    monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
    _, cache = ssn_forward(x, _rand_params(rng, 8, 4), 0.0, omega, 2)
    ssn_backward(cache, rng.normal(size=x.shape))
    assert calls and set(calls) == {2}


def _setbufsize_calls(monkeypatch):
    """Record the sizes the layer passes to ``np.setbufsize``."""
    calls = []
    setbufsize = np.setbufsize
    monkeypatch.setattr(np, "setbufsize", lambda size: calls.append(size) or
                        setbufsize(size))
    return calls


@contextlib.contextmanager
def _caller_bufsize(size):
    # numpy restores the buffer size with the error state.
    with np.errstate():
        np.setbufsize(size)
        yield


def _pool_bufsizes():
    """The buffer size each thread of the two-worker pool reads."""
    barrier = threading.Barrier(2, timeout=10)

    def read():
        barrier.wait()
        return np.getbufsize()
    pool = layer._executor(2, os.getpid())
    return [f.result(timeout=10) for f in [pool.submit(read) for _ in range(2)]]


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
@pytest.mark.parametrize("one_hot", [False, True], ids=["mixed", "one-hot"])
@pytest.mark.parametrize("hw", [(8, 8), (12, 12), (14, 14), (28, 28), (56, 56)])
def test_row_buffer_cut_keeps_the_bits(monkeypatch, hw, one_hot, mode):
    # Rows of 64, 144, 196 (cut to 192, not a whole row), 784 and 3136
    # elements: the one-row buffer changes how the elementwise passes are
    # chunked, never a bit of what they compute, on one thread or two.
    rng = np.random.default_rng(28)
    omega = ("IN", "BN", "LN", "GN")
    x = rng.normal(size=(3, 4) + hw)
    g = rng.normal(size=x.shape) if mode == TRAIN else None
    params = _rand_params(rng, 4, 4, mode=mode)
    params.bn_running_mean = rng.normal(size=4)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=4)
    r = 0.1
    if one_hot:
        params.gate.z_mean = np.array([5.0, 0.0, 0.0, 0.0])
        params.gate.z_var = params.gate.z_mean.copy()
        r = circumradius(4)
    monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
    calls = _setbufsize_calls(monkeypatch)
    row = hw[0] * hw[1]
    for workers in (1, 2):
        monkeypatch.setattr(layer, "WORKERS", workers)
        cut = _layer_bits(x, params, r, omega, 2, g)
        assert (row - row % 16 in calls) == (row >= 128), (calls, workers)
        with monkeypatch.context() as m:
            m.setattr(layer, "ROW_BUFFER_MIN", 1 << 40)
            calls.clear()
            assert _layer_bits(x, params, r, omega, 2, g) == cut, workers
            assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_buffer_size_is_left_alone(monkeypatch, workers):
    # The cut is set inside each pass and undone there, also when the call
    # raises, in the calling thread and in the pool's; a caller's own buffer
    # size changes no bit of the result.
    monkeypatch.setattr(layer, "WORKERS", workers)
    rng = np.random.default_rng(29)
    omega = ("IN", "BN", "LN", "GN")
    x = rng.normal(size=(4, 8, 16, 16))
    g = rng.normal(size=x.shape)
    monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
    params = _rand_params(rng, 8, 4)
    default = np.getbufsize()
    expected = _layer_bits(x, params, 0.1, omega, 2, g)
    assert np.getbufsize() == default
    assert _pool_bufsizes() == [default] * 2
    bad_x, bad_g = x.copy(), g.copy()
    bad_x[2, 3, 4, 5] = bad_g[1, 6, 7, 8] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="activation tensor must be finite"):
            ssn_forward(bad_x, params, 0.1, omega, 2)
        assert np.getbufsize() == default
        _, cache = ssn_forward(x, params, 0.1, omega, 2)
        with pytest.raises(InvalidInputError, match="upstream tensor must be finite"):
            ssn_backward(cache, bad_g)
        assert np.getbufsize() == default
    assert _pool_bufsizes() == [default] * 2
    for size in (16, 1 << 16):
        with _caller_bufsize(size), monkeypatch.context() as m:
            calls = _setbufsize_calls(m)
            assert _layer_bits(x, params, 0.1, omega, 2, g) == expected, size
            assert np.getbufsize() == size
            # A buffer already below one row is never raised to it.
            assert (calls == []) == (size < 256), (size, calls)

    def fail(lo, hi):
        assert np.getbufsize() == 192
        raise RuntimeError("pass failed")
    with pytest.raises(RuntimeError, match="pass failed"):
        layer._map_samples(fail, (4, 1, 8, 196))
    assert np.getbufsize() == default
    assert _pool_bufsizes() == [default] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_every_pass_is_named_and_cut(monkeypatch, workers):
    # Every full-tensor pass goes through ``_map_samples`` as a named
    # function, so a wrapper of it can tell the passes apart, and on rows of
    # 3136 elements each call of a pass, one per one-sample block, runs under
    # the one-row buffer cut, in the calling thread or in the pool.
    monkeypatch.setattr(layer, "WORKERS", workers)
    rng = np.random.default_rng(31)
    omega = ("IN", "BN", "LN", "GN")
    x = rng.normal(size=(3, 4, 56, 56))
    monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
    params = _rand_params(rng, 4, 4)
    params.gate.z_mean = 1.0 + 0.02 * rng.normal(size=4)
    params.gate.z_var = 1.0 + 0.02 * rng.normal(size=4)
    bn_eval = _rand_params(rng, 4, 4, mode=EVAL)
    bn_eval.gate.z_mean = bn_eval.gate.z_var = np.array([0.0, 5.0, 0.0, 0.0])
    bad_x, bad_g = x.copy(), rng.normal(size=x.shape)
    bad_x[1, 2, 3, 4] = bad_g[2, 1, 0, 5] = np.nan
    calls = []
    names = _pass_names(monkeypatch, calls)
    seen = []
    _, cache = ssn_forward(x, params, 0.1, omega, 2)
    ssn_backward(cache, rng.normal(size=x.shape))
    seen.append(names[:])
    names.clear()
    ssn_forward(x, bn_eval, circumradius(4), omega, 2)
    seen.append(names[:])
    names.clear()
    with pytest.raises(InvalidInputError, match="activation tensor must be finite"):
        ssn_forward(bad_x, params, 0.1, omega, 2)
    seen.append(names[:])
    names.clear()
    with pytest.raises(InvalidInputError, match="upstream tensor must be finite"):
        ssn_backward(cache, bad_g)
    seen.append(names[:])
    # Each block checks its own samples, so a pass stops at the first
    # rejected block: x's NaN is in sample 1, g's in sample 2.
    assert seen == [["row_moments", "normalize", "sweep_1", "sweep_2"],
                    ["normalize"], ["row_moments"], ["sweep_1"]]
    assert [len(blocks) for _, blocks in calls] == [3] * 5 + [2, 3]
    assert {size for _, blocks in calls for _, _, size in blocks} == {3136}


def test_toy_shapes_never_cut_the_buffer(monkeypatch):
    # Every toy tensor has 64-element rows, below ``ROW_BUFFER_MIN``, so the
    # toy's passes run as they would without the cut.
    calls = _setbufsize_calls(monkeypatch)
    rng = np.random.default_rng(30)
    omega = ("IN", "BN", "LN", "GN")
    for n in (40, 200):
        x = rng.normal(size=(n, 8, 8, 8))
        _, cache = ssn_forward(x, _rand_params(rng, 8, 4), 0.0, omega, 2)
        ssn_backward(cache, rng.normal(size=x.shape))
        ssn_forward(x, _rand_params(rng, 8, 4, mode=EVAL), 0.0, omega, 2)
    assert calls == []
    # Rows of 256 elements are cut to one row.
    x = rng.normal(size=(5, 8, 16, 16))
    _, cache = ssn_forward(x, _rand_params(rng, 8, 4), 0.0, omega, 2)
    ssn_backward(cache, rng.normal(size=x.shape))
    assert 256 in calls and set(calls) <= {256, np.getbufsize()}


def _forward_bytes(x):
    return ssn_forward(x, SsnParams.init(8, 3), 0.1, ("IN", "BN", "LN"))[0].tobytes()


def test_pool_runs_in_a_forked_child(monkeypatch):
    # A forked child inherits the parent's pool object but not its threads;
    # the child's passes must still run, not wait forever.
    monkeypatch.setattr(layer, "WORKERS", 2)
    x = np.random.default_rng(27).normal(size=(5, 8, 8, 8))
    monkeypatch.setattr(layer, "BLOCK_BYTES", x[0].nbytes)
    expected = _forward_bytes(x)
    with warnings.catch_warnings():
        # Python 3.12+ warns about fork() in a process that has threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_forward_bytes, (x,)).get(timeout=30) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_rejections_on_the_threaded_path(monkeypatch, workers):
    # 16x64x28x28 spans several blocks, so with 2 workers each full-tensor
    # pass runs in the pool, where numpy's errstate must hold too: every
    # rejection raises its own error with no numpy warning.
    monkeypatch.setattr(layer, "WORKERS", workers)
    rng = np.random.default_rng(26)
    omega = ("IN", "BN", "LN", "GN")
    x = rng.normal(size=(16, 64, 28, 28))
    assert x.nbytes > 2 * layer.BLOCK_BYTES
    params = SsnParams.init(64, 4)
    params.gate.z_mean = 1.0 + 0.02 * rng.normal(size=4)
    params.gate.z_var = 1.0 + 0.02 * rng.normal(size=4)
    bn_eval = SsnParams.init(64, 4)
    bn_eval.gate.z_mean = bn_eval.gate.z_var = np.array([0.0, 5.0, 0.0, 0.0])
    bn_eval.mode = EVAL
    g = rng.normal(size=x.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, cache = ssn_forward(x, params, 0.1, omega, 32)
        for value in (np.nan, np.inf):
            bad = x.copy()
            bad[7, 3, 5, 5] = value
            for p_, r in ((params, 0.1), (bn_eval, circumradius(4))):
                with pytest.raises(InvalidInputError, match="activation tensor must be finite"):
                    ssn_forward(bad, p_, r, omega, 32)
            bad = g.copy()
            bad[9, 40, 1, 2] = value
            with pytest.raises(InvalidInputError, match="upstream tensor must be finite"):
                ssn_backward(cache, bad)
        with pytest.raises(InvalidInputError, match="upstream tensor is too large"):
            ssn_backward(cache, np.full(x.shape, 1e307))


def test_backward_writes_no_full_size_temporary(monkeypatch):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(8, 16, 32, 32))
    g = rng.normal(size=x.shape)
    monkeypatch.setattr(layer, "BLOCK_BYTES", 2 * x[0].nbytes)
    calls = []
    _pass_names(monkeypatch, calls)
    for workers in (1, 2):
        monkeypatch.setattr(layer, "WORKERS", workers)
        # The forward makes the pool, if any, before the traced window.
        _, cache = ssn_forward(x, SsnParams.init(16, 4), 0.1, ("IN", "BN", "LN", "GN"), 4)
        calls.clear()
        tracemalloc.start()
        try:
            grads = ssn_backward(cache, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(blocks) for name, blocks in calls if name == "sweep_2") == 4
        # grad_x itself; per worker, one block-sized g * alpha temporary and
        # numpy's buffer for a broadcast ufunc (np.getbufsize() elements);
        # room for 64 per-(n, c) arrays.  A full-size temporary would add
        # another x.nbytes.
        per_worker = layer.BLOCK_BYTES + 8 * np.getbufsize()
        bound = x.nbytes + workers * per_worker + 64 * 8 * x.shape[0] * x.shape[1]
        assert bound < 2 * x.nbytes
        assert grads.x.shape == x.shape
        assert peak < bound, workers


# ------------------------------------------------- recycled output memory

def _address(a) -> int:
    return a.__array_interface__["data"][0]


def _recycling_layer(seed):
    """x, a live three-normalizer layer, and a (BN, BN) eval layer whose y
    is written straight from x (no centered copy)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4, 5, 5))
    bn_eval = _bn_selected_params(4)
    bn_eval.mode = EVAL
    return rng, x, _rand_params(rng, 4, 3), bn_eval


# Ways a caller keeps an output's memory alive: the output itself, or a view
# derived from it after the output itself is dropped.
HOLDERS = {
    "itself": lambda out: out,
    "row": lambda out: out[0],
    "strided": lambda out: out.reshape(-1)[::3],
    "memoryview": memoryview,
}


@pytest.mark.parametrize("output", ["y", "grad_x"])
@pytest.mark.parametrize("holder", HOLDERS)
def test_held_outputs_never_change(monkeypatch, holder, output):
    # Later forwards and backwards of the same size take the memory of the
    # outputs their caller dropped, never of one it still holds.  Each
    # later call would first find the held output's base, the first kept.
    # The idle test reads a base's reference count; an interpreter that
    # counts differently fails here or in the reuse test below.
    bases = _recycle_all(monkeypatch)
    omega = ("IN", "BN", "LN")
    rng, x, params, bn_eval = _recycling_layer(40)
    y, cache = ssn_forward(x, params, 0.1, omega)
    if output == "grad_x":
        del y
        y = ssn_backward(cache, rng.normal(size=x.shape)).x
    held, address = HOLDERS[holder](y), _address(y)
    expected = np.array(held).tobytes()
    del y, cache
    assert _address(bases[0]) == address
    later = []
    for _ in range(3):
        x2 = rng.normal(size=x.shape)
        y2, cache2 = ssn_forward(x2, params, 0.1, omega)
        grad_x = ssn_backward(cache2, rng.normal(size=x.shape)).x
        y3, _ = ssn_forward(x2, bn_eval, circumradius(3), omega)
        later += [_address(y2), _address(grad_x), _address(y3)]
        del y2, cache2, grad_x, y3
    assert address not in later
    assert _address(bases[1]) in later
    assert np.array(held).tobytes() == expected


def test_dropped_output_memory_is_reused(monkeypatch):
    _recycle_all(monkeypatch)
    omega = ("IN", "BN", "LN")
    rng, x, params, bn_eval = _recycling_layer(41)
    y, cache = ssn_forward(x, params, 0.1, omega)
    first = _address(y)
    grad_x = ssn_backward(cache, rng.normal(size=x.shape)).x
    second = _address(grad_x)
    assert second != first  # y was still held
    del y
    y, _ = ssn_forward(x, params, 0.1, omega)
    assert _address(y) == first
    del grad_x
    y_eval, _ = ssn_forward(x, bn_eval, circumradius(3), omega)
    assert _address(y_eval) == second
    del y
    assert _address(ssn_backward(cache, rng.normal(size=x.shape)).x) == first


def test_at_most_two_bases_in_total(monkeypatch):
    # Outputs at or below RECYCLE_BYTES are not kept.
    kept = _no_kept_base(monkeypatch)
    omega = ("IN", "BN", "LN")
    rng, x, params, _ = _recycling_layer(42)
    assert x.nbytes <= layer.RECYCLE_BYTES == 32 << 20
    ssn_forward(x, params, 0.1, omega)
    assert kept == []
    # Above it, at most two bases of any sizes, even with every output held.
    kept = _recycle_all(monkeypatch)
    held = [ssn_forward(x, params, 0.1, omega)[0] for _ in range(4)]
    wide = rng.normal(size=(3, 4, 5, 6))
    held += [ssn_forward(wide, params, 0.1, omega)[0] for _ in range(3)]
    assert [base.size for base in kept] == [x.size, x.size]
    assert len(set(map(_address, held))) == len(held)
    # Once the shape changes, the idle bases of the old size are released.
    old = [weakref.ref(base) for base in kept]
    del held
    y_wide, _ = ssn_forward(wide, params, 0.1, omega)
    assert [base.size for base in kept] == [wide.size]
    assert [ref() for ref in old] == [None, None]
    y_wide2, _ = ssn_forward(wide, params, 0.1, omega)
    assert [base.size for base in kept] == [wide.size, wide.size]
    # A held base of the old size stays kept, and held.
    del y_wide
    y_x, _ = ssn_forward(x, params, 0.1, omega)
    assert [base.size for base in kept] == [wide.size, x.size]
    assert _address(kept[0]) == _address(y_wide2)


def test_idle_count_is_the_one_the_loop_sees():
    # Only CPython's counts tell an idle base from a held one.
    if sys.implementation.name != "cpython":
        assert layer.IDLE_COUNT is None
        return
    probe = np.empty(1)
    assert layer._counts([np.empty(1)]) == [layer.IDLE_COUNT]
    assert layer._counts([probe]) == [layer.IDLE_COUNT + 1]
    view = probe[0:]
    assert layer._counts([probe, np.empty(1)]) == \
        [layer.IDLE_COUNT + 2, layer.IDLE_COUNT]
    del view
    assert layer._idle_count() == layer.IDLE_COUNT


def test_counts_that_ignore_a_holder_turn_recycling_off(monkeypatch):
    # An interpreter whose counts do not rise with each holder cannot tell
    # an idle base from a held one: every output gets memory of its own.
    monkeypatch.setattr(layer, "_counts", lambda bases: [2] * len(bases))
    assert layer._idle_count() is None
    kept = _recycle_all(monkeypatch)
    monkeypatch.setattr(layer, "IDLE_COUNT", None)
    omega = ("IN", "BN", "LN")
    _, x, params, _ = _recycling_layer(45)
    y, _ = ssn_forward(x, params, 0.1, omega)
    expected = y.tobytes()
    address = _address(y)
    y = y[0]
    later = [_address(ssn_forward(x, params, 0.1, omega)[0]) for _ in range(3)]
    assert kept == [] and address not in later
    assert np.asarray(y).tobytes() == expected[:y.nbytes]


def test_threads_get_single_thread_bits(monkeypatch):
    # More threads than cores share the kept bases and the worker pool, with
    # thread switches as frequent as the interpreter allows.  Each gets the
    # bits it gets alone, on outputs it holds while the others compute.
    kept = _recycle_all(monkeypatch)
    monkeypatch.setattr(layer, "WORKERS", 2)
    omega = ("IN", "BN", "LN", "GN")
    rng = np.random.default_rng(43)
    xs = [rng.normal(size=(4, 8, 8, 8)) for _ in range(4)]
    monkeypatch.setattr(layer, "BLOCK_BYTES", xs[0][0].nbytes)
    params = _rand_params(rng, 8, 4)
    g = rng.normal(size=xs[0].shape)

    def bits(x):
        y, cache = ssn_forward(x, params, 0.1, omega, 2)
        grad_x = ssn_backward(cache, g).x
        time.sleep(0)
        return y.tobytes(), grad_x.tobytes()
    expected = [bits(x) for x in xs]
    barrier = threading.Barrier(len(xs))
    results = [None] * len(xs)

    def run(i):
        barrier.wait()
        results[i] = [bits(xs[i]) for _ in range(10)]
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[bits_i] * 10 for bits_i in expected]
    assert len(kept) == 2


def _kept_sizes_and_bits(x):
    return [base.size for base in layer._kept(os.getpid())[1]], _forward_bytes(x)


def test_forked_child_starts_with_no_kept_base(monkeypatch):
    # A child forked while its parent holds the store's lock neither waits
    # for that lock nor takes the parent's bases.
    kept = _recycle_all(monkeypatch)
    x = np.random.default_rng(44).normal(size=(5, 8, 8, 8))
    expected = _forward_bytes(x)
    assert kept
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with layer._kept(os.getpid())[0]:
            pool = multiprocessing.get_context("fork").Pool(1)
        with pool:
            result = pool.apply_async(_kept_sizes_and_bits, (x,)).get(timeout=30)
    assert result == ([], expected)


def test_backward_requires_train_mode():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 3, 3))
    params = SsnParams.init(3, 3)
    params.mode = EVAL
    _, cache = ssn_forward(x, params, 0.1, ("IN", "BN", "LN"))
    with pytest.raises(InvalidStateError):
        ssn_backward(cache, np.zeros_like(x))


# --------------------------------------------------- running stats / eval

def test_update_running_stats_ema():
    params = SsnParams.init(2, 3)
    update_running_stats(params, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.allclose(params.bn_running_mean, [0.1, 0.2], atol=1e-15)
    assert np.allclose(params.bn_running_var, [0.9 + 0.3, 0.9 + 0.4], atol=1e-15)


@pytest.mark.parametrize("name", ["batch_mean", "batch_var"])
def test_update_running_stats_rejects_non_finite_moments(name):
    # NaN moments were stored, and only the next entry point raised, about
    # the running statistics.
    for value in (np.nan, np.inf, -np.inf):
        params = SsnParams.init(4, 3)
        moments = {"batch_mean": np.zeros(4), "batch_var": np.ones(4)}
        moments[name][2] = value
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            update_running_stats(params, moments["batch_mean"], moments["batch_var"])
        assert np.array_equal(params.bn_running_mean, np.zeros(4))
        assert np.array_equal(params.bn_running_var, np.ones(4))
    with pytest.raises(InvalidInputError, match=f"{name} must be real numbers"):
        update_running_stats(params, *(np.zeros(4) + (1j if n == name else 0.0)
                                       for n in ("batch_mean", "batch_var")))


def test_update_running_stats_rejects_shape_mismatch():
    params = SsnParams.init(3, 3)
    for mean, var in ((np.zeros((2, 3)), np.ones((2, 3))),
                      (np.zeros(3), np.ones(4)), (np.zeros(2), np.ones(3))):
        with pytest.raises(InvalidInputError):
            update_running_stats(params, mean, var)
    assert params.bn_running_mean.shape == (3,)
    assert params.bn_running_var.shape == (3,)


def test_select_normalizer_requires_frozen():
    params = SsnParams.init(4, 3)
    with pytest.raises(NotConvergedError):
        select_normalizer(params, ("IN", "BN", "LN"))
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = np.array([0.0, 0.0, 5.0])
    params.gate.frozen_mean = params.gate.frozen_var = True
    assert select_normalizer(params, ("IN", "BN", "LN")) == ("BN", "LN")


# ----------------------------------------------------- folding / convolution

def test_conv2d_matches_nested_loops():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    y = conv2d(x, w, b)
    n, c_out, ho, wo = y.shape
    assert (ho, wo) == (3, 3)
    for i in range(n):
        for o in range(c_out):
            for a in range(ho):
                for bb in range(wo):
                    acc = b[o]
                    for j in range(3):
                        for p in range(3):
                            for q in range(3):
                                acc += x[i, j, a + p, bb + q] * w[o, j, p, q]
                    assert abs(y[i, o, a, bb] - acc) <= 1e-10


def test_fold_bn_into_affine_equivalence():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    params = SsnParams.init(4, 3)
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.gate.frozen_mean = params.gate.frozen_var = True
    params.gamma = rng.normal(size=4) + 1.0
    params.beta = rng.normal(size=4)
    params.bn_running_mean = rng.normal(size=4)
    params.bn_running_var = rng.uniform(0.5, 2.0, size=4)
    params.mode = EVAL

    pre = conv2d(x, w, b)
    y_ref, _ = ssn_forward(pre, params, circumradius(3), ("IN", "BN", "LN"))
    w_f, b_f = fold_bn_into_affine(w, b, params, ("IN", "BN", "LN"))
    y_fold = conv2d(x, w_f, b_f)
    assert np.max(np.abs(y_fold - y_ref)) <= 1e-6


@pytest.mark.parametrize("c,weight_shape,bias_shape", [
    (1, (4, 3, 1, 1), None),    # once broadcast to a wrong 4-channel fold
    (4, (3, 3, 1, 1), None),    # once a numpy broadcast ValueError
    (4, (4, 3), None),
    (4, (4, 3, 1, 1), (3,)),
    (4, (4, 3, 1, 1), (4, 1)),
])
def test_fold_checks_conv_against_layer(c, weight_shape, bias_shape):
    bias = None if bias_shape is None else np.zeros(bias_shape)
    with pytest.raises(InvalidInputError, match="conv"):
        fold_bn_into_affine(np.ones(weight_shape), bias, _bn_selected_params(c),
                            ("IN", "BN", "LN"))


@pytest.mark.parametrize("name", ["weight", "bias"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fold_rejects_non_finite_conv(name, value):
    # Unchecked, the fold would return a NaN or inf weight or bias silently.
    conv = {"weight": np.ones((4, 3, 1, 1)), "bias": np.zeros(4)}
    conv[name].flat[2] = value
    with pytest.raises(InvalidInputError, match=f"conv {name} must be finite"):
        fold_bn_into_affine(conv["weight"], conv["bias"], _bn_selected_params(4),
                            ("IN", "BN", "LN"))


@pytest.mark.parametrize("name", ["weight", "bias"])
def test_fold_rejects_conv_that_is_not_real(name):
    # A complex lost its imaginary part with a ComplexWarning, and a string
    # raised numpy's bare ValueError; lists of numbers pass.
    conv = {"weight": np.ones((4, 3, 1, 1)), "bias": np.zeros(4)}
    for bad, dtype in NOT_REAL:
        conv_bad = dict(conv, **{name: np.resize(bad, conv[name].shape)})
        with pytest.raises(InvalidInputError,
                           match=f"conv {name} must be real numbers, got dtype {dtype}"):
            fold_bn_into_affine(conv_bad["weight"], conv_bad["bias"],
                                _bn_selected_params(4), ("IN", "BN", "LN"))
    w, b = fold_bn_into_affine(conv["weight"].tolist(), conv["bias"].tolist(),
                               _bn_selected_params(4), ("IN", "BN", "LN"))
    assert w.shape == (4, 3, 1, 1) and b.shape == (4,)


def test_fold_requires_bn_selection():
    params = SsnParams.init(4, 3)
    params.gate.z_mean = np.array([5.0, 0.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.gate.frozen_mean = params.gate.frozen_var = True
    with pytest.raises(InvalidStateError):
        fold_bn_into_affine(np.zeros((4, 3, 1, 1)), None, params,
                            ("IN", "BN", "LN"))


# ------------------------------------------------------------------ bench

def test_benchmark_forward_smoke(monkeypatch):
    # After one warm-up call of each path, every round times one rep of
    # each, in the other order from the round before.
    radii = []
    forward = layer.ssn_forward
    monkeypatch.setattr(layer, "ssn_forward", lambda x, params, r, omega:
                        radii.append(r) or forward(x, params, r, omega))
    out = benchmark_forward(2, 4, 8, 8, reps=3)
    c, s = 0.0, circumradius(3)
    assert radii == [c, s] + [c, s] + [s, c] + [c, s]
    assert out["combined_ms"] > 0 and out["sparse_ms"] > 0
    assert out["ratio"] == pytest.approx(out["combined_ms"] / out["sparse_ms"])
    assert set(out) == {"combined_ms", "sparse_ms", "ratio"}
    with pytest.raises(InvalidInputError):
        benchmark_forward(0, 4, 8, 8, reps=3)
    with pytest.raises(InvalidInputError):
        benchmark_forward(2, 4, 8, 8, reps=0)
    # Each argument is an integer: seed -1, reps 1.5 and c 4.0 raised
    # numpy's or Python's own errors.
    for args, named in (((2, 4, 8, 8, 3, -1), "seed"), ((2, 4, 8, 8, 1.5), "reps"),
                        ((2, 4.0, 8, 8, 3), "c")):
        with pytest.raises(InvalidInputError, match=f"{named} must be"):
            benchmark_forward(*args)
