"""Unit and property tests for the simplex projection family."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (central_difference, sparsemax_jacobian,
                       sparsestmax_numpy, sparsestmax_vjp_numpy,
                       validate_prob_vector)
from ssnorm.errors import InvalidInputError
from ssnorm.simplex import (DEGENERATE_TOL, RadiusSchedule,
                            Stage, circumradius, inradius, is_smooth_point,
                            recursion_signature, softmax, sparsemax,
                            sparsestmax, sparsestmax_vjp, vjp_gradcheck)

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def logits_strategy(min_k=2, max_k=6):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.lists(finite_floats, min_size=k, max_size=k))


# ---------------------------------------------------------------- sparsemax

def test_sparsemax_known_value_exact():
    p = sparsemax([0.8, 0.6, 0.1])
    assert np.max(np.abs(p - np.array([0.6, 0.4, 0.0]))) <= 1e-12


def test_sparsemax_identity_on_simplex_interior():
    z = np.array([0.5, 0.3, 0.2])
    assert np.allclose(sparsemax(z), z, atol=1e-15)


def test_sparsemax_matches_brute_force_projection():
    # Independent oracle: minimize ||p - z||^2 over a fine simplex grid.
    rng = np.random.default_rng(7)
    g = 400
    i, j = np.meshgrid(np.arange(g + 1), np.arange(g + 1), indexing="ij")
    i, j = i.ravel(), j.ravel()
    keep = i + j <= g
    pts = np.stack([i[keep], j[keep], g - i[keep] - j[keep]], axis=1) / g
    for _ in range(50):
        z = rng.normal(size=3)
        p = sparsemax(z)
        best = pts[np.argmin(((pts - z) ** 2).sum(axis=1))]
        assert np.max(np.abs(p - best)) <= 2.0 / g


@settings(max_examples=200, deadline=None)
@given(logits_strategy())
def test_sparsemax_is_simplex_member(z):
    p = sparsemax(z)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert p.min() >= 0.0


@settings(max_examples=100, deadline=None)
@given(logits_strategy(), finite_floats)
def test_sparsemax_shift_invariant(z, c):
    assert np.allclose(sparsemax(z), sparsemax(np.asarray(z) + c), atol=1e-9)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("scale", [1e17, 1e20, 1e30])
def test_huge_logits_stay_on_simplex(k, scale):
    # Beyond ~1e16 the +1 in the threshold is below the logits' spacing.
    rng = np.random.default_rng(k)
    distinct = scale * rng.permutation(np.arange(1, k + 1) / 2.0)
    for sign in (1.0, -1.0):
        z = sign * distinct
        for p in (sparsemax(z), sparsestmax(z, 0.3).p):
            assert abs(float(p.sum()) - 1.0) <= 1e-12
            assert np.array_equal(p, np.eye(k)[int(np.argmax(z))])
    for p in (sparsemax(np.full(k, scale)), sparsestmax(np.full(k, -scale), 0.0).p):
        assert abs(float(p.sum()) - 1.0) <= 1e-12
        assert np.allclose(p, 1.0 / k, rtol=0.0, atol=1e-15)


def test_sparsemax_jacobian_structure():
    z = np.array([0.8, 0.6, 0.1])
    jac = sparsemax_jacobian(z)
    expected = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    assert np.max(np.abs(jac - expected)) <= 1e-15


def test_sparsemax_jacobian_finite_difference():
    rng = np.random.default_rng(3)
    eps = 1e-6
    checked = 0
    while checked < 50:
        z = rng.normal(size=4)
        p = sparsemax(z)
        # Skip support boundaries where the map is not differentiable.
        if np.any((p > 0) & (p < 1e-4)):
            continue
        jac = sparsemax_jacobian(z)
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            col = (sparsemax(zp) - sparsemax(zm)) / (2 * eps)
            assert np.max(np.abs(col - jac[:, i])) <= 1e-6
        checked += 1


def test_softmax_positive_and_normalized():
    p = softmax([3.0, -1.0, 0.5])
    assert abs(p.sum() - 1.0) <= 1e-12
    assert p.min() > 0.0


# ----------------------------------------------------------------- geometry

def test_geometry_radii():
    assert inradius(3) == pytest.approx(math.sqrt(6) / 6, abs=1e-15)
    assert circumradius(3) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert circumradius(4) == pytest.approx(math.sqrt(0.75), abs=1e-15)
    for radius in (circumradius, inradius):
        with pytest.raises(InvalidInputError):
            radius(1)


def test_schedule_linear_then_clamped():
    s = RadiusSchedule(((0, 0.0), (100, 1.0)))
    values = [s.radius(t, 3) for t in range(101)]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    # Exactly linear before the clamp kicks in.
    for t, v in enumerate(values):
        assert v == min(circumradius(3), t / 100)
    assert values[-1] == circumradius(3)


def test_schedule_inscribed_crossing_at_unit_41():
    s = RadiusSchedule(((0, 0.0), (100, 1.0)))
    crossing = next(t for t in range(101)
                    if s.radius(t, 3) >= inradius(3))
    assert crossing == 41


def test_schedule_rejects_out_of_range_step():
    # Only a negative or non-integral step is out of range: past the last
    # knot the radius holds.
    s = RadiusSchedule(((0, 0.0), (10, 1.0)))
    for step in (-1, None, float("nan"), 2.5, "3"):
        with pytest.raises(InvalidInputError, match="step"):
            s.radius(step, 3)
    assert s.radius(11, 3) == s.radius(10, 3)


@pytest.mark.parametrize("knots", [
    [],
    [(0, 0.0)],
    [(0, 0.0), (10, 0.5), (10, 0.6)],
    [(0, 0.0), (10, 0.5), (5, 0.6)],
    [(0, 0.0), (10, 0.5), (20, 0.4)],
    [(0, -0.1), (10, 0.5)],
    [(1, 0.0), (10, 0.5)],
    [(0, 0.0), (10.5, 0.5)],
    [(0, 0.0), (10, float("nan"))],
    [(0, 0.0), (10, "0.5")],
    [(0, 0.0), (10, 0.5, 1.0)],
    {"total_steps": 100},
    None,
])
def test_schedule_rejects_malformed_knots(knots):
    with pytest.raises(InvalidInputError):
        RadiusSchedule(knots)


@pytest.mark.parametrize("total", [100, 400, 250, 37])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_schedule_equals_clamped_linear_ramp(total, k):
    # The knot form reproduces the closed form min(r_c, step / T) bit for
    # bit; a last-bit difference would change the training trajectories.
    s = RadiusSchedule(((0, 0.0), (total, 1.0)))
    for t in range(total + 1):
        assert s.radius(t, k) == min(circumradius(k), t / total)


@pytest.mark.parametrize("total,ri", [(400, 160), (400, 280), (100, 40),
                                      (37, 1), (37, 35)])
def test_schedule_equals_inscribed_crossing_closed_form(total, ri):
    r_i, r_c, last = inradius(3), circumradius(3), total - 1
    s = RadiusSchedule(((0, 0), (ri, r_i), (last, r_c)))
    for t in range(total):
        if t <= ri:
            expected = r_i * t / ri
        else:
            expected = min(r_c, r_i + (r_c - r_i) * (t - ri) / (last - ri))
        assert s.radius(t, 3) == expected


# ------------------------------------------------------------- sparsestmax

def test_stage_sparsemax_when_constraint_inactive():
    res = sparsestmax([0.5, 0.3, 0.2], 0.15)
    assert res.stage == Stage.SPARSEMAX
    assert np.max(np.abs(res.p - np.array([0.5, 0.3, 0.2]))) <= 1e-15


def test_stage_circle_closed_form():
    z = np.array([0.5, 0.3, 0.2])
    r = 0.3
    u = np.full(3, 1.0 / 3.0)
    d = z - u
    expected = u + r * d / np.linalg.norm(d)
    res = sparsestmax(z, r)
    assert res.stage == Stage.CIRCLE
    assert np.max(np.abs(res.p - expected)) <= 1e-12


def test_stage_face_closed_form():
    # Radial push exits the simplex; the answer lies on the 2-point face
    # with the radius transferred by Pythagoras.
    z = np.array([0.5, 0.3, 0.2])
    r = 0.6
    u_face = np.array([0.5, 0.5, 0.0])
    r_face = math.sqrt(r ** 2 - 1.0 / 6.0)
    expected = u_face + r_face * np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    res = sparsestmax(z, r)
    assert res.stage == Stage.FACE
    assert np.max(np.abs(res.p - expected)) <= 1e-12
    assert np.flatnonzero(res.p).tolist() == [0, 1]


def test_stage_vertex_exact_one_hot():
    res = sparsestmax([0.5, 0.3, 0.2], circumradius(3))
    assert res.stage == Stage.VERTEX
    assert list(res.p) == [1.0, 0.0, 0.0]
    # Radius past the circumradius clamps to the same answer.
    res2 = sparsestmax([0.5, 0.3, 0.2], 5.0)
    assert list(res2.p) == [1.0, 0.0, 0.0]


def test_vertex_gradient_is_zero():
    res = sparsestmax([0.5, 0.3, 0.2], circumradius(3))
    g = sparsestmax_vjp(res, np.array([1.0, -2.0, 3.0]))
    assert list(g) == [0.0, 0.0, 0.0]


def test_degenerate_center_input_deterministic():
    # Uniform logits sit exactly on the center: deterministic lowest-index
    # argmax fallback, zero gradient.
    z = np.full(3, 1.0)
    res = sparsestmax(z, 0.2)
    u = np.full(3, 1.0 / 3.0)
    expected = u + 0.2 * (np.array([1.0, 0.0, 0.0]) - u) / np.linalg.norm(
        np.array([1.0, 0.0, 0.0]) - u)
    assert np.max(np.abs(res.p - expected)) <= 1e-12
    g = sparsestmax_vjp(res, np.array([0.3, -0.7, 1.1]))
    assert np.max(np.abs(g)) == 0.0


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidInputError):
        sparsestmax([1.0], 0.1)
    with pytest.raises(InvalidInputError):
        sparsestmax([1.0, 2.0, np.nan], 0.1)
    with pytest.raises(InvalidInputError):
        sparsestmax([1.0, 2.0], -0.1)
    with pytest.raises(InvalidInputError):
        sparsestmax([1.0, 2.0], np.inf)
    with pytest.raises(InvalidInputError):
        sparsestmax([1.0, 2.0, 3.0], "0.3")
    with pytest.raises(InvalidInputError):
        sparsestmax([1.0, 2.0, 3.0], None)
    # is_smooth_point checks r as sparsestmax does, rather than reading a
    # bad radius as "not smooth".
    for r in ("0.3", None, np.nan, -0.1):
        with pytest.raises(InvalidInputError, match="radius r"):
            is_smooth_point([0.1, 0.2, 0.3], r)


@settings(max_examples=300, deadline=None)
@given(logits_strategy(), st.floats(0.0, 1.5, allow_nan=False))
# Near-center inputs: the radial push scales round-off off the simplex
# plane by r/||d||, which once left these sums at 1 + 2.3e-8 and 1 - 1.1e-5.
@example(z=[0.0, 3.376016938190785e-09], r=0.5)
@example(z=[0.0, 0.0, 0.0, 3e-12], r=0.5)
def test_output_is_simplex_member(z, r):
    p = sparsestmax(z, r).p
    assert abs(p.sum() - 1.0) <= 1e-9
    assert p.min() >= 0.0
    validate_prob_vector(p / p.sum())


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_near_center_push_keeps_sum_one(k, r):
    rng = np.random.default_rng(k)
    for scale in 10.0 ** np.arange(-14, -3):
        for _ in range(10):
            p = sparsestmax(scale * rng.normal(size=k), r).p
            assert abs(float(p.sum()) - 1.0) <= 1e-12
            validate_prob_vector(p)


@settings(max_examples=300, deadline=None)
@given(logits_strategy(), st.floats(0.0, 1.5, allow_nan=False))
def test_radius_constraint_satisfied(z, r):
    k = len(z)
    r_eff = min(r, circumradius(k))
    p = sparsestmax(z, r).p
    assert np.linalg.norm(p - np.full(k, 1.0 / k)) >= r_eff - 1e-9


@settings(max_examples=200, deadline=None)
@given(logits_strategy(), st.floats(0.0, 1.0, allow_nan=False))
def test_deterministic_replay_bitwise(z, r):
    a = sparsestmax(z, r)
    b = sparsestmax(z, r)
    assert a.p.tobytes() == b.p.tobytes()
    assert a.stage == b.stage


@settings(max_examples=200, deadline=None)
@given(logits_strategy(3, 5), st.floats(0.01, 0.8, allow_nan=False),
       st.randoms(use_true_random=False))
def test_permutation_equivariance(z, r, rnd):
    z = np.asarray(z)
    # Ties are resolved by index and are not permutation-equivariant.
    if np.min(np.diff(np.sort(z))) < 1e-6:
        return
    perm = list(range(len(z)))
    rnd.shuffle(perm)
    perm = np.array(perm)
    a = sparsestmax(z, r).p[perm]
    b = sparsestmax(z[perm], r).p
    assert np.max(np.abs(a - b)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(logits_strategy(3, 6), st.floats(0.0, 1.0, allow_nan=False))
def test_recursion_depth_and_shrinking_faces(z, r):
    res = sparsestmax(z, r)
    k = len(z)
    assert len(res.levels) <= k
    # Each recursion moves to a strictly smaller face of the simplex.
    faces = [k] + [len(lv.support) for lv in res.levels[1:]]
    assert all(b < a for a, b in zip(faces, faces[1:])) or \
        res.stage == Stage.VERTEX


@settings(max_examples=150, deadline=None)
@given(logits_strategy(3, 4), st.floats(0.05, 0.8, allow_nan=False))
def test_support_monotone_in_radius(z, r):
    # Growing the radius never re-activates a zeroed component's complement:
    # the support never grows with r.
    small = sparsestmax(z, r)
    large = sparsestmax(z, min(r + 0.1, circumradius(len(z))))
    assert set(np.flatnonzero(large.p)) <= set(np.flatnonzero(small.p)) or \
        small.stage == Stage.SPARSEMAX


def test_zero_r_reduces_to_sparsemax():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.normal(size=4)
        res = sparsestmax(z, 0.0)
        assert res.stage == Stage.SPARSEMAX
        assert res.p.tobytes() == sparsemax(z).tobytes()


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_projection_matches_numpy_reference(k):
    # The projection runs on Python floats and the reference on numpy
    # arrays, whose ``v @ v`` may fuse multiply-adds: every discrete choice
    # must agree, values to round-off.  The VJP's round-off is scaled by
    # the radial pushes it passes through, each amplifying by r / ||d||.
    rng = np.random.default_rng(200 + k)
    stages, degenerate = set(), 0
    for i in range(1500):
        kind = i % 5
        if kind == 0:
            z = rng.normal(size=k)
        elif kind == 1:    # near the center
            z = rng.normal(size=k) * 10.0 ** rng.uniform(-14, -4)
        elif kind == 2:    # huge logits
            z = rng.normal(size=k) * 10.0 ** rng.uniform(0, 30)
        elif kind == 3:
            z = 1.0 + rng.normal(size=k) * rng.choice([0.05, 0.3])
        else:              # exactly the center
            z = np.full(k, rng.normal())
        r = (circumradius(k), rng.uniform(0.0, circumradius(k)),
             rng.uniform(0.0, 0.3))[i % 3]
        res, ref = sparsestmax(z, r), sparsestmax_numpy(z, r)
        assert res.stage == ref.stage
        assert np.flatnonzero(res.p).tolist() == np.flatnonzero(ref.p).tolist()
        assert len(res.levels) == len(ref.levels)
        for lv, lv_ref in zip(res.levels, ref.levels):
            assert lv.support == lv_ref.support
            assert (lv.d is None) == (lv_ref.d is None)
            assert lv.degenerate == lv_ref.degenerate
            degenerate += lv.degenerate
        assert np.max(np.abs(res.p - ref.p)) <= 1e-15
        g = rng.normal(size=k)
        scale = np.max(np.abs(g))
        for lv in ref.levels:
            if lv.d is not None and not lv.degenerate:
                scale *= lv.r / lv.d_norm
        diff = sparsestmax_vjp(res, g) - sparsestmax_vjp_numpy(ref, g)
        assert np.max(np.abs(diff)) <= 1e-13 * scale
        stages.add(res.stage)
    assert stages == set(Stage) - ({Stage.FACE} if k == 2 else set())
    assert degenerate > 0


# --------------------------------------------------------------- gradients

@pytest.mark.parametrize("k", [3, 4, 5])
def test_vjp_matches_finite_differences(k):
    rng = np.random.default_rng(100 + k)
    done = 0
    while done < 60:
        z = rng.normal(size=k)
        r = rng.uniform(0.05, 0.9 * circumradius(k))
        if not is_smooth_point(z, r):
            continue
        g = rng.normal(size=k)
        analytic = sparsestmax_vjp(sparsestmax(z, r), g)
        fd = central_difference(lambda: g @ sparsestmax(z, r).p, z, 1e-6)
        denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-3)
        assert np.linalg.norm(analytic - fd) <= 1e-5 * denom
        done += 1


def test_vjp_gradcheck_matches_reference_loop():
    # Same draws (z, r, skip, g) as the checker, with the test suite's own
    # finite differences; the worst error must agree exactly.
    rng = np.random.default_rng(7)
    worst, done = 0.0, 0
    while done < 30:
        z = rng.normal(size=4)
        r = rng.uniform(0.05, 0.7)
        if not is_smooth_point(z, r):
            continue
        g = rng.normal(size=4)
        analytic = sparsestmax_vjp(sparsestmax(z, r), g)
        fd = central_difference(lambda: g @ sparsestmax(z, r).p, z, 1e-6)
        denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-3)
        worst = max(worst, float(np.linalg.norm(analytic - fd) / denom))
        done += 1
    assert vjp_gradcheck(np.random.default_rng(7), 4, 30, 0.7) == worst


# (k, trials, r_hi, match) of a rejected call; r is drawn from U(0.05, r_hi)
# and a run with no trials would read as a pass.
GRADCHECK_REJECTS = {
    "1": (1, 1, 0.5, "k"),
    "0": (0, 1, 0.5, "k"),
    "-1": (-1, 1, 0.5, "k"),
    "trials 0": (3, 0, 0.5, "trials"),
    "trials -5": (3, -5, 0.5, "trials"),
    "r_hi 0": (3, 1, 0.0, "r_hi"),
    "r_hi 0.05": (3, 1, 0.05, "r_hi"),
    "r_hi NaN": (3, 1, float("nan"), "r_hi"),
    "r_hi inf": (3, 1, float("inf"), "r_hi"),
}


@pytest.mark.parametrize("case", GRADCHECK_REJECTS)
def test_vjp_gradcheck_rejects_degenerate_simplex(case):
    k, trials, r_hi, match = GRADCHECK_REJECTS[case]
    with pytest.raises(InvalidInputError, match=match):
        vjp_gradcheck(np.random.default_rng(0), k, trials, r_hi)


def test_vjp_gradcheck_flags_vjp_without_radial_push(monkeypatch):
    import ssnorm.simplex as simplex

    def sparsemax_only_vjp(res, g):
        s = list(res.levels[0].support)
        out = np.zeros_like(g)
        out[s] = g[s] - g[s].mean()
        return out

    assert vjp_gradcheck(np.random.default_rng(3), 3, 20, 0.7) < 1e-5
    monkeypatch.setattr(simplex, "sparsestmax_vjp", sparsemax_only_vjp)
    assert vjp_gradcheck(np.random.default_rng(3), 3, 20, 0.7) > 1e-2


def test_vjp_zero_columns_for_zeroed_components():
    # d p / d z_j vanishes whenever the output zeroes component j; the VJP
    # therefore returns exact zeros at those positions.
    rng = np.random.default_rng(21)
    found = 0
    while found < 40:
        z = rng.normal(size=4)
        r = rng.uniform(0.3, 0.8)
        res = sparsestmax(z, r)
        zeroed = np.flatnonzero(res.p == 0.0)
        if zeroed.size == 0:
            continue
        g = rng.normal(size=4)
        grad = sparsestmax_vjp(res, g)
        assert all(grad[j] == 0.0 for j in zeroed)
        if is_smooth_point(z, r):
            fd = central_difference(lambda: g @ sparsestmax(z, r).p, z, 1e-6)
            assert all(abs(fd[j]) <= 1e-7 for j in zeroed)
        found += 1


def test_vjp_is_exactly_zero_at_every_one_hot_output():
    # A one-hot result's last level holds a single index, so the VJP is
    # exactly zero whatever the upstream.  The trainer relies on this to
    # leave a one-hot gate's logits alone: the layer reads no freeze flag.
    rng = np.random.default_rng(34)
    for k in range(2, 7):
        r_circum = circumradius(k)
        found = {"uniform r": 0, "r_circum": 0}
        while min(found.values()) < 300:
            z = rng.normal(size=k) * rng.uniform(0.1, 5.0)
            for kind, r in (("uniform r", rng.uniform(0.0, r_circum)),
                            ("r_circum", r_circum)):
                res = sparsestmax(z, r)
                if res.p.max() != 1.0:
                    continue
                g = rng.normal(size=k) * 10.0 ** rng.uniform(-3.0, 3.0)
                assert not sparsestmax_vjp(res, g).any(), (k, kind, z, r)
                found[kind] += 1


def test_vjp_null_direction_on_circle():
    # While the radial push is active at the top level, the gradient has no
    # component along the push direction sparsemax(z) - u.
    rng = np.random.default_rng(33)
    found = 0
    while found < 100:
        z = rng.normal(size=3) * 0.3
        r = rng.uniform(0.1, 0.6)
        res = sparsestmax(z, r)
        if res.stage != Stage.CIRCLE:
            continue
        g = rng.normal(size=3)
        grad = sparsestmax_vjp(res, g)
        assert abs(grad @ (sparsemax(z) - 1 / 3)) <= 1e-8
        found += 1


def test_vjp_rejects_bad_upstream():
    res = sparsestmax([0.5, 0.3, 0.2], 0.3)
    with pytest.raises(InvalidInputError):
        sparsestmax_vjp(res, np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        sparsestmax_vjp(res, np.array([1.0, np.nan, 0.0]))


# ------------------------------------------------------------------ helpers

def test_validate_prob_vector_clamps_tiny_negatives():
    p = validate_prob_vector([1.0 + 1e-13, -1e-13])
    assert p[1] == 0.0
    with pytest.raises(InvalidInputError):
        validate_prob_vector([0.5, 0.6])
    with pytest.raises(InvalidInputError):
        validate_prob_vector([1.1, -0.1])


def test_recursion_signature_distinguishes_stages():
    a = recursion_signature(sparsestmax([0.5, 0.3, 0.2], 0.3))
    b = recursion_signature(sparsestmax([0.5, 0.3, 0.2], 0.6))
    assert a != b
