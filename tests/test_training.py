"""End-to-end tests for the toy training harness."""
import copy
import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import DEFAULT_CONFIG
from reference import (central_difference, conv2d, frozen_gate_gradients,
                       revived_ratios)
from ssnorm.cli import _load_train_configs
from ssnorm.errors import (InvalidInputError, NotConvergedError,
                           TrainingFailedError)
from ssnorm.layer import EVAL, fold_bn_into_affine, select_normalizer, ssn_forward
from ssnorm.simplex import RadiusSchedule, Stage, circumradius, inradius
from ssnorm.training import (OptimizerConfig, ToyModelConfig, _ToyNet,
                             make_synthetic_dataset,
                             schedule_insensitivity_experiment,
                             selection_histogram, train)

MODEL, OPT, _ = _load_train_configs(str(DEFAULT_CONFIG), None)


# ----------------------------------------------------------------- dataset

def test_dataset_reproducible():
    a = make_synthetic_dataset(5, 60, (2, 4, 4), 3)
    b = make_synthetic_dataset(5, 60, (2, 4, 4), 3)
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    c = make_synthetic_dataset(6, 60, (2, 4, 4), 3)
    assert a[0].tobytes() != c[0].tobytes()


def test_dataset_zero_noise_labels_recoverable():
    x, y = make_synthetic_dataset(1, 40, (2, 3, 3), 4, noise=0.0)
    # With zero noise each sample equals its class mean exactly.
    keys = {}
    for xi, yi in zip(x, y):
        k = xi.tobytes()
        assert keys.setdefault(k, yi) == yi
    assert len(keys) == 4


def test_dataset_two_separated_clusters_linearly_classified():
    x, y = make_synthetic_dataset(2, 100, (1, 2, 2), 2, separation=5.0,
                                  noise=0.5)
    feats = x.reshape(100, -1)
    # Nearest-class-mean classifier as a linear-model stand-in.
    m0 = feats[y == 0].mean(axis=0)
    m1 = feats[y == 1].mean(axis=0)
    pred = (np.linalg.norm(feats - m1, axis=1) <
            np.linalg.norm(feats - m0, axis=1)).astype(int)
    assert (pred == y).mean() >= 0.99


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        make_synthetic_dataset(0, 10, (1, 2, 2), 1)
    with pytest.raises(InvalidInputError):
        make_synthetic_dataset(0, 2, (1, 2, 2), 4)


# ------------------------------------------------------------------ configs

def test_config_validation():
    with pytest.raises(InvalidInputError):
        ToyModelConfig(layer_widths=[4], ssn_layer_count=2)
    with pytest.raises(InvalidInputError):
        ToyModelConfig(layer_widths=[], ssn_layer_count=0)
    for field in ("height", "batch_size"):
        with pytest.raises(InvalidInputError, match="all dimensions must be positive"):
            ToyModelConfig(**{field: 0})
    with pytest.raises(InvalidInputError):
        OptimizerConfig(lr=0.0)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(momentum=1.0)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(epochs=0)


@pytest.mark.parametrize("fields,named", [
    ({"omega": ("IN", "BN", "LN", "GN"), "gn_groups": 0}, "gn_groups"),
    ({"omega": ("IN", "BN", "LN", "GN"), "gn_groups": 3}, "gn_groups"),
    ({"seed": -1}, "seed"),
])
def test_model_config_rejects_configs_that_fail_in_training(fields, named):
    with pytest.raises(InvalidInputError, match=named):
        ToyModelConfig(**fields)


def test_model_config_checks_gn_groups_only_with_gn():
    ToyModelConfig(gn_groups=3)
    ToyModelConfig(omega=("IN", "BN", "LN", "GN"), gn_groups=4)


@pytest.mark.parametrize("field,value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.1),
    ("weight_decay", float("inf")), ("weight_decay", float("nan")),
    ("weight_decay", -1e-4),
    ("z_lr_ratio", float("nan")), ("z_lr_ratio", float("inf")),
    ("z_lr_ratio", -0.1),
    ("z_init", float("nan")), ("z_init", float("-inf")),
])
def test_optimizer_config_rejects_non_finite_fields(field, value):
    with pytest.raises(InvalidInputError, match=field):
        OptimizerConfig(**{field: value})


# ----------------------------------------------------------------- training

def test_training_converges_all_gates_one_hot(default_run):
    *_, log = default_run
    last = log.rows[-1]
    for lr_ in last.layers:
        assert max(lr_.p) == 1.0
        assert max(lr_.pp) == 1.0
        assert lr_.frozen_mean and lr_.frozen_var
        assert lr_.stage == Stage.VERTEX.value


def test_radius_non_decreasing_and_linear_before_clamp(default_run):
    *_, log = default_run
    rs = [row.r for row in log.rows]
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    total = len(log.rows)
    for step, r in enumerate(rs):
        assert r == min(circumradius(3), step / total)


def test_loss_decreases(default_run):
    *_, log = default_run
    assert log.rows[-1].loss < log.rows[0].loss


def test_no_ratio_component_revives(default_run):
    *_, log = default_run
    assert revived_ratios(log) == []


def _discrete_trajectory(log):
    """Per (layer, gate): the first step with a zero ratio and the freeze
    step; then each layer's final (mean, variance) selection."""
    def first(pred):
        return next(row.step for row in log.rows if pred(row))
    steps = [(first(lambda row: min(row.layers[li].p) == 0.0),
              first(lambda row: min(row.layers[li].pp) == 0.0),
              first(lambda row: row.layers[li].frozen_mean),
              first(lambda row: row.layers[li].frozen_var))
             for li in range(log.layer_count)]
    names = [(log.omega[int(np.argmax(lr_.p))], log.omega[int(np.argmax(lr_.pp))])
             for lr_ in log.rows[-1].layers]
    return steps, names


def test_default_runs_discrete_trajectory_pinned(default_run, seed123_run):
    # Literal values of the default runs (seeds 0 and 123): a change that
    # moves the gates' values at round-off must not move these.
    assert _discrete_trajectory(default_run[-1]) == (
        [(41, 42, 83, 83), (47, 43, 83, 83), (47, 67, 83, 83), (45, 52, 83, 83)],
        [("BN", "IN"), ("LN", "BN"), ("BN", "IN"), ("LN", "BN")])
    assert _discrete_trajectory(seed123_run[-1]) == (
        [(51, 66, 83, 83), (44, 44, 83, 83), (43, 49, 83, 83), (42, 54, 83, 83)],
        [("BN", "BN"), ("LN", "BN"), ("LN", "BN"), ("BN", "LN")])


def test_frozen_gates_receive_zero_gradients(default_run):
    *_, log = default_run
    assert frozen_gate_gradients(log) == []


def test_freeze_monotone_and_hot_index_stable(default_run):
    *_, log = default_run
    for li in range(log.layer_count):
        frozen_m = frozen_v = False
        hot_m = hot_v = None
        for row in log.rows:
            lr_ = row.layers[li]
            assert lr_.frozen_mean >= frozen_m
            assert lr_.frozen_var >= frozen_v
            frozen_m, frozen_v = lr_.frozen_mean, lr_.frozen_var
            if max(lr_.p) == 1.0:
                idx = lr_.p.index(1.0)
                assert hot_m in (None, idx)
                hot_m = idx
            if max(lr_.pp) == 1.0:
                idx = lr_.pp.index(1.0)
                assert hot_v in (None, idx)
                hot_v = idx


def test_null_direction_at_logged_circle_steps(default_run):
    # On the circle, p - 1/k is the radial push direction scaled by r/|d|,
    # and the logit gradient has no component along it.
    *_, log = default_run
    k = len(log.omega)
    found = 0
    for row in log.rows:
        for lr_ in row.layers:
            if lr_.stage == Stage.CIRCLE.value:
                radial = np.array(lr_.p) - 1.0 / k
                assert abs(np.dot(lr_.z_grad_mean, radial)) <= 1e-8
                found += 1
    assert found > 0


def test_csv_schema(default_run):
    *_, log = default_run
    text = log.to_csv()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    expected = ["step", "r", "loss"]
    for i in range(1, 5):
        expected += [f"L{i}_p_IN", f"L{i}_p_BN", f"L{i}_p_LN",
                     f"L{i}_pp_IN", f"L{i}_pp_BN", f"L{i}_pp_LN",
                     f"L{i}_frozen_mean", f"L{i}_frozen_var", f"L{i}_stage"]
    assert header == expected
    rows = list(reader)
    assert len(rows) == len(log.rows)
    for row in rows:
        assert len(row) == len(header)
        float(row[1]), float(row[2])
        assert row[expected.index("L1_stage")] in \
            ("Sparsemax", "Circle", "Face", "Vertex")


def test_seed_changes_bytes_but_not_convergence(default_run, seed123_run):
    *_, base = default_run
    *_, log = seed123_run
    assert log.to_csv() != base.to_csv()
    for lr_ in log.rows[-1].layers:
        assert max(lr_.p) == 1.0 and max(lr_.pp) == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_step_index():
    data = make_synthetic_dataset(0, 80, (3, 8, 8), 4)
    hot = OptimizerConfig(lr=1e30, momentum=0.9, weight_decay=1e-4, epochs=5)
    with pytest.raises(TrainingFailedError) as err:
        train(MODEL, hot, data)
    assert isinstance(err.value.step, int)
    assert err.value.step >= 0


@pytest.mark.parametrize("case", ["5 channels", "3-D x", "NaN in x",
                                  "label too large", "negative label",
                                  "labels too short"])
def test_train_rejects_data_that_does_not_fit_the_model(case):
    x, labels = make_synthetic_dataset(0, 20, (3, 8, 8), 4)
    if case == "5 channels":
        x = make_synthetic_dataset(0, 20, (5, 8, 8), 4)[0]
    elif case == "3-D x":
        x = x[:, 0]
    elif case == "NaN in x":
        x = x.copy()
        x[2, 1, 0, 0] = np.nan
    elif case == "label too large":
        labels = labels.copy()
        labels[3] = 4
    elif case == "negative label":
        labels = labels.copy()
        labels[0] = -1
    else:
        labels = labels[:-1]
    with pytest.raises(InvalidInputError):
        train(MODEL, replace(OPT, epochs=1), (x, labels))


def test_toy_net_gradients_match_finite_differences():
    # Two layers, the first mixing a 3-channel input, with both gates of
    # each layer pushed onto the circle so every normalizer contributes.
    cfg = ToyModelConfig(layer_widths=[4, 5], ssn_layer_count=2, batch_size=6,
                         channels=3, height=2, width=2, n_classes=3)
    rng = np.random.default_rng(3)
    net = _ToyNet(cfg, OptimizerConfig(), rng)
    for params in net.ssn:
        params.gate.z_mean[:] = 0.05 * rng.normal(size=3)
        params.gate.z_var[:] = 0.05 * rng.normal(size=3)
    x = rng.normal(size=(6, 3, 2, 2))
    labels = np.arange(6) % 3
    r = 0.2
    _, grads, layers = net.loss_and_grads(x, labels, r)
    for cache, _ in layers:
        assert cache.p_res.stage == cache.pp_res.stage == Stage.CIRCLE

    names = ["head_w", "head_b"] + [f"{name}[{li}]" for li in range(2) for name in
                                    ("mix", "gamma", "beta", "z_mean", "z_var")]
    assert len(net.params) == len(grads) == len(names)
    for name, entry, analytic in zip(names, net.params, grads):
        fd = central_difference(lambda: net.loss_and_grads(x, labels, r)[0],
                                entry.value, 1e-6)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6, f"{name}: relative error {rel:.2e}"


# ------------------------------------------------------------ trained net

@pytest.mark.parametrize("seed,accuracy", [(0, 0.81), (5, 0.89)])
def test_returned_net_accuracy_in_train_and_eval_mode(default_run, seed, accuracy):
    if seed == 0:  # the default config's own seed: reuse the session run
        _, _, (x, labels), log = default_run
    else:
        model, opt, (x, labels) = _load_train_configs(str(DEFAULT_CONFIG), seed)
        log = train(model, opt, (x, labels))
    r = log.rows[-1].r
    assert log.net.accuracy(x, labels, r) == log.final_accuracy == accuracy
    # The running statistics are the full-set BN moments of that train-mode
    # forward, so eval mode gives the same figure on the training set.
    net = copy.deepcopy(log.net)
    for params in net.ssn:
        params.mode = EVAL
    assert net.accuracy(x, labels, r) == log.final_accuracy


def test_folded_bn_layer_matches_the_eval_forward(seed123_run):
    # Seed 123's layer 1 selects (BN, BN): fold it into the 1x1 mixing
    # before it and run the layers above in eval mode.
    model, _, (x, labels), log = seed123_run
    net = copy.deepcopy(log.net)
    for params in net.ssn:
        params.mode = EVAL
    r = log.rows[-1].r
    eval_logits, _ = net.forward(x, r)
    w, b = fold_bn_into_affine(net.mix[0][:, :, None, None], None, net.ssn[0],
                               net.omega)
    h = np.maximum(conv2d(x, w, b), 0.0)
    for mix_w, params in zip(net.mix[1:], net.ssn[1:]):
        y, _ = ssn_forward(conv2d(h, mix_w[:, :, None, None]), params, r,
                           net.omega, model.gn_groups)
        h = np.maximum(y, 0.0)
    logits = h.mean(axis=(2, 3)) @ net.head_w + net.head_b
    assert np.max(np.abs(logits - eval_logits)) <= 1e-12
    assert float((logits.argmax(axis=1) == labels).mean()) == \
        log.final_accuracy == 0.85


# -------------------------------------------------------------- histograms

def test_selection_histogram_counts(default_run, seed123_run):
    for *_, log in (default_run, seed123_run):
        hist = selection_histogram(log)
        assert set(hist) == {"mean", "var"}
        for gate in ("mean", "var"):
            assert set(hist[gate]) == set(log.omega)
            assert sum(hist[gate].values()) == log.layer_count
        # The trained net's selections are the last row's hot entries.
        last = log.rows[-1].layers
        for gate, ratios in (("mean", [lr_.p for lr_ in last]),
                             ("var", [lr_.pp for lr_ in last])):
            hot = [log.omega[ratio.index(1.0)] for ratio in ratios]
            assert hist[gate] == {name: hot.count(name) for name in log.omega}


def test_frozen_logits_select_the_last_logged_ratios():
    # A gate freezes before the update of the step whose ratio went one-hot,
    # so no momentum step moves its logits to another vertex.  With this
    # omega and seed, that step once moved layer 1's mean gate from GN to IN.
    model, opt, data = _load_train_configs(str(DEFAULT_CONFIG), 8)
    model = replace(model, omega=("IN", "BN", "LN", "GN"))
    log = train(model, replace(opt, epochs=2), data)
    for params, record in zip(log.net.ssn, log.rows[-1].layers):
        assert select_normalizer(params, log.omega) == (
            log.omega[int(np.argmax(record.p))], log.omega[int(np.argmax(record.pp))])
    assert select_normalizer(log.net.ssn[1], log.omega) == ("GN", "IN")


def test_selection_histogram_rejects_unconverged():
    data = make_synthetic_dataset(0, 80, (3, 8, 8), 4)
    short = OptimizerConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, epochs=1)
    log = train(MODEL, short, data)
    with pytest.raises(NotConvergedError):
        selection_histogram(log)


# ------------------------------------------------------ schedule experiments

def _insensitivity_schedule(total_steps, ri_step):
    return RadiusSchedule(((0, 0), (ri_step, inradius(3)),
                           (total_steps - 1, circumradius(3))))


def test_insensitivity_schedule_shape():
    sched = _insensitivity_schedule(100, 40)
    assert sched.radius(0, 3) == 0.0
    assert sched.radius(40, 3) == pytest.approx(inradius(3), abs=1e-15)
    assert sched.radius(99, 3) == pytest.approx(circumradius(3), abs=1e-12)
    vals = [sched.radius(s, 3) for s in range(100)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    data = make_synthetic_dataset(0, 200, (3, 8, 8), 4)
    # The crossing step must lie strictly inside the 100-step run.
    with pytest.raises(InvalidInputError):
        schedule_insensitivity_experiment(MODEL, OPT, data, [0])
    with pytest.raises(InvalidInputError):
        schedule_insensitivity_experiment(MODEL, OPT, data, [100])


def test_single_element_experiment_matches_direct_train():
    data = make_synthetic_dataset(0, 200, (3, 8, 8), 4)
    [log] = schedule_insensitivity_experiment(MODEL, OPT, data, [50])
    sched = _insensitivity_schedule(100, 50)
    direct = train(MODEL, replace(OPT, schedule=sched), data)
    assert log.final_accuracy == direct.final_accuracy
    assert log.to_csv() == direct.to_csv()


def test_config_schedule_drives_radius_and_holds_last_knot():
    # A schedule shorter than the run holds its last radius; steps past the
    # circumradius are clamped to it.
    data = make_synthetic_dataset(0, 80, (3, 8, 8), 4)
    sched = RadiusSchedule(((0, 0.1), (3, 2.0)))
    log = train(MODEL, replace(OPT, epochs=3, schedule=sched), data)
    r_c = circumradius(3)
    assert [row.r for row in log.rows] == [0.1, 0.1 + (2.0 - 0.1) * 1 / 3] + \
        [r_c] * 4
