"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line before asserting, so the
acceptance status is visible in the pytest output (-s / captured on
failure).  The published stage tables of criteria 2 and 3 give each
projection rounded to two decimals by largest remainder, so that every
row sums to 1: each entry is floored and the missing hundredths go to
the entries with the largest remainders.  Criterion 2's rows coincide
with round-half-up, so the test holds them to 0.005.  Criterion 3's
r=0.3 row does not (0.10400 rounds up to 0.11 to make the sum 1), so
the test compares the largest-remainder rounding exactly and pins that
row to its closed form.
"""
import math
import time

import numpy as np

from reference import (central_difference, conv2d, forward_oracle,
                       frozen_gate_gradients, oracle_project, plain_moments,
                       revived_ratios)
from ssnorm.layer import (EVAL, GateParams, SsnParams, benchmark_forward,
                          fold_bn_into_affine, ssn_backward, ssn_forward)
from ssnorm.simplex import (RadiusSchedule, Stage, circumradius, inradius,
                            is_smooth_point, sparsemax, sparsestmax,
                            sparsestmax_vjp, vjp_gradcheck)
from ssnorm.training import (OptimizerConfig, schedule_insensitivity_experiment,
                             train)


def _report(n, desc, ok):
    print(f"[PRIMARY {n}] {desc}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_sparsemax_known_value():
    p = sparsemax([0.8, 0.6, 0.1])
    ok = bool(np.max(np.abs(p - np.array([0.6, 0.4, 0.0]))) <= 1e-12)
    assert _report(1, "sparsemax((0.8,0.6,0.1)) = (0.6,0.4,0) within 1e-12", ok)


def test_criterion_2_stage_table_k3():
    z = [0.5, 0.3, 0.2]
    table = {
        0.15: (0.5, 0.3, 0.2),
        0.3: (0.56, 0.29, 0.15),
        0.6: (0.81, 0.19, 0.0),
        0.816: (1.0, 0.0, 0.0),
    }
    worst = 0.0
    for r, expected in table.items():
        p = sparsestmax(z, r).p
        worst = max(worst, float(np.max(np.abs(p - np.array(expected)))))
    ok = worst <= 0.005
    assert _report(2, f"K=3 stage table within 0.005 (worst {worst:.4f})", ok)


def _round_to_sum(p, decimals=2):
    """Round ``p`` by largest remainder, so the rounded entries keep its sum."""
    scale = 10 ** decimals
    scaled = np.asarray(p, dtype=np.float64) * scale
    units = np.floor(scaled)
    short = int(round(float(scaled.sum() - units.sum())))
    order = np.argsort(units - scaled, kind="stable")
    units[order[:short]] += 1.0
    return units / scale


def test_criterion_3_stage_table_k4():
    z = [0.3, 0.25, 0.23, 0.22]
    table = {
        0.3: (0.49, 0.25, 0.15, 0.11),
        0.6: (0.75, 0.23, 0.02, 0.0),
        0.866: (1.0, 0.0, 0.0, 0.0),
    }
    mismatched = [r for r, expected in table.items()
                  if not np.array_equal(_round_to_sum(sparsestmax(z, r).p),
                                        np.array(expected))]
    # z is on the simplex within r=0.3 of the center, so that row is the
    # plain radial push u + r (z - u) / ||z - u||.
    u = np.full(4, 0.25)
    closed = u + 0.3 * (np.array(z) - u) / np.linalg.norm(np.array(z) - u)
    closed_err = float(np.max(np.abs(sparsestmax(z, 0.3).p - closed)))
    ok = not mismatched and closed_err <= 1e-12
    assert _report(3, "K=4 stage table equals the largest-remainder "
                      f"two-decimal rounding (rows off: {mismatched}; "
                      f"r=0.3 vs closed form {closed_err:.1e})", ok)


def test_criterion_4_schedule_crossing_at_41():
    assert abs(inradius(3) - math.sqrt(6) / 6) <= 1e-15
    s = RadiusSchedule(((0, 0.0), (100, 1.0)))
    crossing = next(t for t in range(101)
                    if s.radius(t, 3) >= inradius(3))
    ok = crossing == 41
    assert _report(4, f"linear schedule crosses r_inscribed at unit {crossing}"
                      " (expected 41)", ok)


def test_criterion_5_oracle_equivalence_1000_points():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst_gap = -np.inf
    for trial in range(1000):
        k = int(rng.integers(2, 5))
        z = rng.normal(size=k)
        r = rng.uniform(0.0, circumradius(k))
        exact = sparsestmax(z, r).p
        grid = oracle_project(z, r, 120)
        gap = float(((exact - z) ** 2).sum() - ((grid - z) ** 2).sum())
        worst_gap = max(worst_gap, gap)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-4 and elapsed < 120
    assert _report(5, "1000-point grid-oracle equivalence "
                      f"(worst gap {worst_gap:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_6_gradient_suite():
    worst_rel = max(vjp_gradcheck(np.random.default_rng(500 + k), k, 200,
                                  0.9 * circumradius(k))
                    for k in (3, 4))
    # Null direction: gradient has no component along the radial push.
    rng = np.random.default_rng(99)
    worst_dot = 0.0
    found = 0
    while found < 100:
        z = rng.normal(size=3) * 0.3
        r = rng.uniform(0.1, 0.6)
        res = sparsestmax(z, r)
        if res.stage != Stage.CIRCLE:
            continue
        grad = sparsestmax_vjp(res, rng.normal(size=3))
        worst_dot = max(worst_dot, abs(float(grad @ (sparsemax(z) - 1 / 3))))
        found += 1
    ok = worst_rel < 1e-5 and worst_dot < 1e-8
    assert _report(6, "gradient suite (finite differences "
                      f"{worst_rel:.2e}, null direction {worst_dot:.2e})", ok)


def test_criterion_7_sparsity_stability(default_run):
    *_, log = default_run
    no_revival = not revived_ratios(log)
    zeros_after_freeze = not frozen_gate_gradients(log)
    ok = no_revival and zeros_after_freeze
    assert _report(7, "sparsity stability (no ratio revival: "
                      f"{no_revival}, frozen-gate zero grads: "
                      f"{zeros_after_freeze})", ok)


def test_criterion_8_end_to_end_convergence(default_run):
    model, opt, data, log = default_run
    t0 = time.time()
    log2 = train(model, opt, data)
    elapsed = time.time() - t0
    last = log.rows[-1]
    one_hot = all(max(lr_.p) == 1.0 and max(lr_.pp) == 1.0
                  for lr_ in last.layers)
    deterministic = log.to_csv() == log2.to_csv()
    ok = one_hot and deterministic and elapsed < 60 and len(log.rows) == 100
    assert _report(8, f"toy convergence (one-hot {one_hot}, deterministic "
                      f"{deterministic}, {elapsed:.1f}s, "
                      f"{len(log.rows)} steps)", ok)


def test_criterion_9_layer_correctness():
    rng = np.random.default_rng(77)
    omega = ("IN", "BN", "LN")
    # (a) forward against a scalar-loop reference on 2x2x2x2 tensors.
    forward_worst = 0.0
    for _ in range(5):
        x = rng.normal(size=(2, 2, 2, 2))
        params = SsnParams(
            gate=GateParams(z_mean=rng.normal(size=3),
                            z_var=rng.normal(size=3)),
            gamma=rng.normal(size=2) + 1.0, beta=rng.normal(size=2))
        r = rng.uniform(0.0, 0.5)
        y, _ = ssn_forward(x, params, r, omega)
        ref = forward_oracle(x, params, r, omega, 1)
        forward_worst = max(forward_worst, float(np.max(np.abs(y - ref))))
    # (b) one-hot mixtures reproduce each plain normalizer.
    onehot_worst = 0.0
    x = rng.normal(size=(3, 4, 5, 5))
    full = ("IN", "BN", "LN", "GN")
    for hot, name in enumerate(full):
        params = SsnParams.init(4, 4)
        params.gate.z_mean = np.where(np.arange(4) == hot, 5.0, 0.0)
        params.gate.z_var = params.gate.z_mean.copy()
        y, _ = ssn_forward(x, params, circumradius(4), full, 2)
        mu, var = plain_moments(x, name, 2)
        ref = (x - mu[:, :, None, None]) / \
            np.sqrt(var[:, :, None, None] + params.eps)
        onehot_worst = max(onehot_worst, float(np.max(np.abs(y - ref))))
    # (c) full backward against central finite differences.
    r = 0.25
    while True:
        gate = GateParams(z_mean=rng.normal(size=3), z_var=rng.normal(size=3))
        if is_smooth_point(gate.z_mean, r) and is_smooth_point(gate.z_var, r):
            break
    params = SsnParams(gate=gate, gamma=rng.normal(size=4) + 1.0,
                       beta=rng.normal(size=4))
    x = rng.normal(size=(2, 4, 3, 3))
    w_loss = rng.normal(size=x.shape)

    def loss():
        y, _ = ssn_forward(x, params, r, omega)
        return float((y * w_loss).sum())

    _, cache = ssn_forward(x, params, r, omega)
    grads = ssn_backward(cache, w_loss)
    backward_worst = 0.0
    for got, vec in [(grads.gamma, params.gamma), (grads.beta, params.beta),
                     (grads.z_mean, params.gate.z_mean),
                     (grads.z_var, params.gate.z_var), (grads.x, x)]:
        ref = central_difference(loss, vec, 1e-5)
        denom = max(np.linalg.norm(ref), 1e-3)
        backward_worst = max(backward_worst,
                             float(np.linalg.norm(got - ref) / denom))
    ok = forward_worst <= 1e-12 and onehot_worst <= 1e-12 and \
        backward_worst <= 1e-4
    assert _report(9, f"layer correctness (forward {forward_worst:.1e}, "
                      f"one-hot {onehot_worst:.1e}, "
                      f"backward {backward_worst:.1e})", ok)


def test_criterion_10_inference_specialization():
    rng = np.random.default_rng(404)
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
    y_ref, _ = ssn_forward(conv2d(x, w, b), params, circumradius(3),
                           ("IN", "BN", "LN"))
    w_f, b_f = fold_bn_into_affine(w, b, params, ("IN", "BN", "LN"))
    fold_err = float(np.max(np.abs(conv2d(x, w_f, b_f) - y_ref)))

    bench = benchmark_forward(32, 64, 56, 56, reps=50)
    faster = bench["sparse_ms"] < bench["combined_ms"]
    ok = fold_err <= 1e-6 and faster
    assert _report(10, f"inference specialization (fold error {fold_err:.1e},"
                       f" sparse {bench['sparse_ms']:.1f}ms < combined "
                       f"{bench['combined_ms']:.1f}ms: {faster})", ok)


def test_criterion_11_schedule_insensitivity(default_run):
    model, _, data, _ = default_run
    opt = OptimizerConfig(lr=0.05, momentum=0.9, weight_decay=1e-4,
                          z_lr_ratio=0.1, z_init=1.0, epochs=80)
    total = 80 * 5
    ri_steps = [int(f * total) for f in (0.4, 0.5, 0.6, 0.7)]
    logs = schedule_insensitivity_experiment(model, opt, data, ri_steps)
    accs = [log.final_accuracy for log in logs]
    losses = [log.rows[-1].loss for log in logs]
    spread = max(accs) - min(accs)
    ok = spread < 0.02
    assert _report(11, "schedule insensitivity (accuracies "
                       f"{[round(a, 3) for a in accs]}, "
                       f"spread {spread * 100:.2f}pp; final losses "
                       f"{[round(v, 4) for v in losses]}, "
                       f"spread {max(losses) - min(losses):.4f})", ok)
