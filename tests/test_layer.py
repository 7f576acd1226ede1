"""Tests for the gated normalization layer: forward against a scalar-loop
oracle, exact backward against finite differences, running statistics
and convolution folding."""
import numpy as np
import pytest

from reference import central_difference, conv2d, forward_oracle, plain_moments
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

@pytest.mark.parametrize("omega,gn_groups", [
    (("IN", "BN", "LN"), 1), (("IN", "BN", "LN", "GN"), 2)])
def test_forward_matches_scalar_oracle(omega, gn_groups):
    rng = np.random.default_rng(42)
    for r in (0.0, 0.2, 0.5):
        x = rng.normal(size=(2, 2, 2, 2))
        params = _rand_params(rng, 2, len(omega))
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


@pytest.mark.parametrize("mode", ["evl", "Train", "", None])
def test_forward_rejects_unknown_mode(mode):
    # Any mode other than "eval" once ran silently on batch BN statistics.
    params = SsnParams.init(4, 3)
    params.mode = mode
    with pytest.raises(InvalidInputError, match="mode"):
        ssn_forward(np.ones((2, 4, 3, 3)), params, 0.1, ("IN", "BN", "LN"))


@pytest.mark.parametrize("name", ["bn_running_mean", "bn_running_var"])
@pytest.mark.parametrize("shape", [(5,), (3,), (1, 4), ()])
def test_forward_checks_running_stats_shape(name, shape):
    # Fields are reassigned after construction, so the forward checks too.
    params = SsnParams.init(4, 3)
    setattr(params, name, np.ones(shape))
    for mode in (TRAIN, EVAL):
        params.mode = mode
        with pytest.raises(InvalidInputError, match="running statistics"):
            ssn_forward(np.ones((2, 4, 3, 3)), params, 0.1, ("IN", "BN", "LN"))


@pytest.mark.parametrize("name", ["beta", "bn_running_mean", "bn_running_var"])
@pytest.mark.parametrize("shape", [(5,), (3,), (1, 4), ()])
def test_params_check_vector_lengths(name, shape):
    fields = dict(gate=GateParams(z_mean=np.zeros(3), z_var=np.zeros(3)),
                  gamma=np.ones(4), beta=np.zeros(4))
    fields[name] = np.ones(shape)
    with pytest.raises(InvalidInputError, match=name):
        SsnParams(**fields)


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


@pytest.mark.parametrize("omega,gn_groups", [
    (("IN", "BN", "LN"), 1), (("IN", "BN", "LN", "GN"), 2)])
def test_backward_matches_finite_differences(omega, gn_groups):
    rng = np.random.default_rng(7)
    k = len(omega)
    r = 0.25
    x = rng.normal(size=(2, 4, 3, 3))
    params = _smooth_gate_params(rng, 4, k, r)
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


def test_backward_frozen_gates_get_exact_zeros():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 3, 3))
    params = SsnParams.init(3, 3)
    params.gate.frozen_mean = True
    params.gate.frozen_var = True
    _, cache = ssn_forward(x, params, 0.1, ("IN", "BN", "LN"))
    grads = ssn_backward(cache, rng.normal(size=x.shape))
    assert np.all(grads.z_mean == 0.0)
    assert np.all(grads.z_var == 0.0)


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


def test_select_normalizer_checks_gate_length():
    params = SsnParams.init(4, 4)
    params.gate.frozen_mean = params.gate.frozen_var = True
    with pytest.raises(InvalidInputError):
        select_normalizer(params, ("IN", "BN", "LN"))


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


def _bn_selected_params(c):
    params = SsnParams.init(c, 3)
    params.gate.z_mean = np.array([0.0, 5.0, 0.0])
    params.gate.z_var = params.gate.z_mean.copy()
    params.gate.frozen_mean = params.gate.frozen_var = True
    return params


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


# ---------------------------------------------------------- params / bench

@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-5])
def test_params_require_finite_positive_eps(eps):
    with pytest.raises(InvalidInputError, match="eps"):
        SsnParams(gate=GateParams(z_mean=np.zeros(3), z_var=np.zeros(3)),
                  gamma=np.ones(2), beta=np.zeros(2), eps=eps)


def test_benchmark_forward_smoke():
    out = benchmark_forward(2, 4, 8, 8, reps=3)
    assert out["combined_ms"] > 0 and out["sparse_ms"] > 0
    assert out["ratio"] == pytest.approx(out["combined_ms"] / out["sparse_ms"])
    assert set(out) == {"combined_ms", "sparse_ms", "ratio"}
    with pytest.raises(InvalidInputError):
        benchmark_forward(0, 4, 8, 8, reps=3)
    with pytest.raises(InvalidInputError):
        benchmark_forward(2, 4, 8, 8, reps=0)
