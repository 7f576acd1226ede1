"""Tests for the gated normalization layer: forward against a scalar-loop
oracle, exact backward against finite differences, running statistics
and convolution folding."""
import contextlib
import dataclasses
import multiprocessing
import tracemalloc
import warnings

import numpy as np
import pytest

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


def test_recentred_variances_match_extended_precision():
    # With every normalizer active, each one after the first re-centres the
    # previous one's centered copy in place; a large offset would expose a
    # wrong shift.
    omega = ("IN", "BN", "LN", "GN")
    gn_groups = 3
    x = 1e3 + np.random.default_rng(19).normal(size=(4, 6, 5, 5))
    _, cache = ssn_forward(x, SsnParams.init(6, 4), 0.0, omega, gn_groups)
    assert set(cache.stats) == set(omega)
    xl = x.astype(np.longdouble)
    for name in omega:
        var = np.broadcast_to(cache.stats[name][1], cache.view[:3] + (1,)).reshape(4, 6)
        ref = plain_moments(xl, name, gn_groups)[1]
        assert float(np.max(np.abs(var - ref) / ref)) <= 1e-12, name


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


# Per omega, the (mean, variance) selections: None is r = 0 with every
# normalizer active, then each one-hot and two disjoint pairs.
FINITENESS_CASES = [
    pytest.param(omega, gates, id=f"{'-'.join(omega)}:{'-'.join(gates or ['r0'])}")
    for omega in (("IN", "BN", "LN"), ("IN", "BN", "LN", "GN"))
    for gates in [None, *((name, name) for name in omega), ("LN", "BN"), ("BN", "IN")]]


@pytest.mark.parametrize("mode", [TRAIN, EVAL])
@pytest.mark.parametrize("omega,gates", FINITENESS_CASES)
def test_forward_rejects_non_finite_input(omega, gates, mode):
    # Finiteness is read off the mixed moments wherever a statistic comes
    # from x; one-hot BN in eval mode has none and checks x directly.
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
    "mode evl": ("mode", "evl"),
    "long z_mean": ("z_mean", np.zeros(4)),
    "short z_var": ("z_var", np.zeros(2)),
}


@pytest.mark.parametrize("broken", BROKEN_FIELDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_checks_params(entry, broken):
    mode, call = ENTRY_POINTS[entry]
    field, value = BROKEN_FIELDS[broken]
    with pytest.raises(InvalidInputError, match=field):
        call(_broken_params(mode, {field: value}))


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
    for samples, sizes in [(1, [1] * 5), (2, [2, 2, 1])]:
        monkeypatch.setattr(layer, "BLOCK_BYTES", samples * sample_bytes)
        blocks = layer._sample_blocks(cache.view, x)
        assert [len(xb) for (xb,) in blocks] == sizes
        for workers in (1, 2, 3):
            monkeypatch.setattr(layer, "WORKERS", workers)
            grads = ssn_backward(cache, g)
            for field in ("x", "gamma", "beta", "z_mean", "z_var"):
                assert getattr(grads, field).tobytes() == \
                    getattr(one_block, field).tobytes(), (samples, workers, field)


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
    for samples in (1, 2):
        monkeypatch.setattr(layer, "BLOCK_BYTES", samples * x[0].nbytes)
        for workers in (1, 2, 3):
            monkeypatch.setattr(layer, "WORKERS", workers)
            assert _layer_bits(x, params, r, omega, gn_groups) == one_block, \
                (samples, workers)


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
    # Restored by hand: on numpy 1.x an errstate does not restore it.
    inherited = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(inherited)


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
    # raises; a caller's own buffer size changes no bit of the result.
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
        layer._map_samples(layer._row_buffered(fail, 196), (4, 1, 8, 196))
    assert np.getbufsize() == default


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
    for workers in (1, 2):
        monkeypatch.setattr(layer, "WORKERS", workers)
        # The forward makes the pool, if any, before the traced window.
        _, cache = ssn_forward(x, SsnParams.init(16, 4), 0.1, ("IN", "BN", "LN", "GN"), 4)
        assert len(layer._sample_blocks(cache.view, x)) == 4
        tracemalloc.start()
        try:
            grads = ssn_backward(cache, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # grad_x itself; per worker, one block of scratch and numpy's buffer
        # for a broadcast ufunc (np.getbufsize() elements); room for 64
        # per-(n, c) arrays.  A full-size temporary would add another x.nbytes.
        per_worker = layer.BLOCK_BYTES + 8 * np.getbufsize()
        bound = x.nbytes + workers * per_worker + 64 * 8 * x.shape[0] * x.shape[1]
        assert bound < 2 * x.nbytes
        assert grads.x.shape == x.shape
        assert peak < bound, workers


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
