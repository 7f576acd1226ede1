"""Projections onto the probability simplex and its radius-constrained
variant.

``sparsemax`` is the Euclidean projection onto the simplex.  ``sparsestmax``
projects onto the simplex with an excluded open ball of radius ``r`` around
the simplex center; as ``r`` grows to the circumradius the feasible set
shrinks to the vertices and the output becomes one-hot.  Exact
vector-Jacobian products are provided for both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, InvalidStateError, check_array, check_integer, check_real

# Below this distance from the center, the radial direction is undefined
# and a deterministic fallback direction is used.
DEGENERATE_TOL = 1e-12


class Stage(str, Enum):
    SPARSEMAX = "Sparsemax"
    CIRCLE = "Circle"
    FACE = "Face"
    VERTEX = "Vertex"


def _logits(z) -> list[float]:
    """Validate a logits vector (real and finite, 1-D, length >= 2) and
    return its entries as Python floats."""
    z = check_array("logits", z)
    if z.ndim != 1 or z.size < 2:
        raise InvalidInputError("logits must be a 1-D vector of length >= 2")
    return z.tolist()


def as_logits(z) -> np.ndarray:
    """Validate and copy a logits vector: real and finite, 1-D, length >= 2."""
    return np.array(_logits(z))


def circumradius(k: int) -> float:
    """Distance from the center of the probability simplex in R^k to each
    vertex: the radius at which only one-hot outputs stay feasible."""
    check_integer("simplex dimension k", k, 2)
    return math.sqrt((k - 1) / k)


def inradius(k: int) -> float:
    """Distance from the center of the probability simplex in R^k to each
    facet."""
    check_integer("simplex dimension k", k, 2)
    return math.sqrt(1.0 / (k * (k - 1)))


@dataclass(frozen=True)
class RadiusSchedule:
    """Piecewise-linear radius r(step) through ``knots``: (step, r) pairs
    with integer steps increasing from 0 and radii >= 0 non-decreasing.

    The linear ramp to r=1 over T steps is ``((0, 0.0), (T, 1.0))``."""

    knots: tuple[tuple[int, float], ...]

    def __post_init__(self):
        try:
            knots = tuple((s, r) for s, r in self.knots)
        except (TypeError, ValueError):
            knots = ()
        if len(knots) < 2:
            raise InvalidInputError("schedule needs two or more [step, r] knots")
        for s, r in knots:
            check_integer("schedule step", s)
            check_real("schedule radius", r, 0)
        steps, radii = zip(*knots)
        if steps[0] != 0 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise InvalidInputError("schedule steps must increase from 0")
        if any(b < a for a, b in zip(radii, radii[1:])):
            raise InvalidInputError("schedule radii must be non-decreasing")
        object.__setattr__(self, "knots", tuple((int(s), float(r)) for s, r in knots))

    def radius(self, step: int, k: int) -> float:
        """Radius at ``step``, clamped to the circumradius for ``k``
        normalizers.  A step on an interior knot is read from the segment
        ending there; past the last knot the radius holds its last value."""
        check_integer("step", step, 0)
        r_circum = circumradius(k)
        step = min(step, self.knots[-1][0])
        for (s0, r0), (s1, r1) in zip(self.knots, self.knots[1:]):
            if step <= s1:
                return min(r_circum, r0 + (r1 - r0) * (step - s0) / (s1 - s0))


def softmax(z) -> np.ndarray:
    """Shift-invariant softmax.  An entry is 0 where ``exp`` underflows: a
    logit more than about 745 below the largest."""
    z = as_logits(z)
    e = np.exp(z - z.max())
    return e / e.sum()


# The projection runs on Python lists of floats: its vectors hold one entry
# per normalizer, so numpy's per-call cost would outweigh the arithmetic.
# Sums run left to right, as numpy's do below eight entries; numpy's 1-D
# ``v @ v`` may fuse its multiply-adds, so norms can differ in the last bit.

def _sum(v) -> float:
    total = 0.0
    for x in v:
        total += x
    return total


def _dot(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _dist_sq(a, b) -> float:
    """Squared Euclidean distance between two vectors."""
    total = 0.0
    for x, y in zip(a, b):
        t = x - y
        total += t * t
    return total


def _support(p) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(p) if v > 0.0)


def _sparsemax(z: list[float]) -> list[float]:
    # Sort-based threshold evaluation, O(K log K).  Sparsemax is
    # shift-invariant, so subtracting the maximum is exact; it keeps the +1
    # in the threshold from being lost to rounding at extreme magnitudes.
    top = max(z)
    z = [v - top for v in z]
    cumsum = total = 0.0
    a = 0
    for j, v in enumerate(sorted(z, reverse=True), 1):
        cumsum += v
        if 1.0 + j * v > cumsum:
            a, total = j, cumsum
    tau = (total - 1.0) / a
    return [v - tau if v > tau else 0.0 for v in z]


def sparsemax(z) -> np.ndarray:
    """Euclidean projection of ``z`` onto the probability simplex."""
    return np.array(_sparsemax(_logits(z)))


@dataclass(frozen=True)
class ProjectionLevel:
    """What the backward pass reads of one recursion level of the staged
    projection.  ``support`` holds the indices where the level's sparsemax
    output is positive; its Jacobian is (delta_ij - 1/|S|) on that support.
    When the radial push ran, ``d`` is its direction (the sparsemax output
    minus the level's face center) with norm ``d_norm``, and ``r`` the
    level's radius; otherwise ``d`` is None.  ``degenerate`` marks a push
    along the fallback direction, which does not depend on the input."""

    support: tuple[int, ...]
    d: tuple[float, ...] | None = None
    r: float = 0.0
    d_norm: float = 0.0
    degenerate: bool = False


@dataclass(frozen=True)
class ProjectionResult:
    p: np.ndarray
    stage: Stage
    levels: tuple[ProjectionLevel, ...]


def sparsestmax(z, r: float) -> ProjectionResult:
    """Project ``z`` onto the simplex restricted to ``||p - u||_2 >= r``.

    Staged evaluation: take the plain sparsemax if it already satisfies the
    radial constraint; otherwise push it radially onto the circle; if that
    leaves the simplex, re-project onto the touched face and recurse on the
    face with the reduced radius.  ``r`` is clamped to the circumradius,
    at which point the output is exactly one-hot.
    """
    z = _logits(z)
    k = len(z)
    r_circum = circumradius(k)
    r = min(float(check_real("radius r", r, 0)), r_circum)

    u = [1.0 / k] * k
    p0 = _sparsemax(z)
    dist0 = math.sqrt(_dist_sq(p0, u))
    if dist0 >= r:
        return ProjectionResult(np.array(p0), Stage.SPARSEMAX,
                                (ProjectionLevel(_support(p0)),))
    if r == r_circum:
        # Only the vertices are feasible; the closest one is the argmax of
        # the sparsemax output (argmax of z when p0 is uniform).
        top = z if dist0 < DEGENERATE_TOL else p0
        m = top.index(max(top))
        p = [0.0] * k
        p[m] = 1.0
        return ProjectionResult(np.array(p), Stage.VERTEX,
                                (ProjectionLevel(_support(p0)), ProjectionLevel((m,))))

    # Each level projects once: level 0 starts from p0, and a face level
    # from the re-projection p2 of its own input z_cur = p1.
    levels: list[ProjectionLevel] = []
    z_cur, p_sm, r_cur = z, p0, r
    while True:
        face = _support(u)
        if len(face) == 1:
            # The recursion shrank the face to a single vertex.
            p_out = u
            levels.append(ProjectionLevel(face))
            break
        d = [a - b for a, b in zip(p_sm, u)]
        # Drop d's round-off normal to the face (u is the face barycenter,
        # zero off it); the push scales d by r/||d|| and would amplify it.
        d_sum = _sum(d)
        d = [a - d_sum * b for a, b in zip(d, u)]
        d_norm = math.sqrt(_dot(d, d))
        if d_norm >= r_cur:
            levels.append(ProjectionLevel(_support(p_sm)))
            p_out = p_sm
            break
        degenerate = d_norm < DEGENERATE_TOL
        if degenerate:
            m = max(face, key=z_cur.__getitem__)
            d = [-v for v in u]
            d[m] += 1.0
            d_norm = math.sqrt(_dot(d, d))
        scale = r_cur / d_norm
        p1 = [a + scale * b for a, b in zip(u, d)]
        levels.append(ProjectionLevel(_support(p_sm), tuple(d), r_cur, d_norm,
                                      degenerate))
        if all(v >= 0.0 for v in p1):
            p_out = p1
            if p1.count(0.0) == k - 1:
                # The push reached a vertex: end on it, as the other vertex
                # exits do, so that the VJP is exactly zero.
                levels.append(ProjectionLevel(_support(p1)))
            break
        # Radial push left the simplex: re-project and recurse on the face
        # spanned by the support, with the center moved to its barycenter.
        p2 = _sparsemax(p1)
        s2 = _support(p2)
        u_next = [0.0] * k
        for i in s2:
            u_next[i] = 1.0 / len(s2)
        r_next = math.sqrt(max(r_cur ** 2 - _dist_sq(u, u_next), 0.0))
        z_cur, p_sm, u, r_cur = p1, p2, u_next, r_next

    if len(_support(p_out)) == 1:
        stage = Stage.VERTEX
    elif len(levels) == 1:
        stage = Stage.CIRCLE
    else:
        stage = Stage.FACE
    return ProjectionResult(np.array(p_out), stage, tuple(levels))


def sparsestmax_vjp(result: ProjectionResult, upstream) -> np.ndarray:
    """Pull ``upstream`` back through the projection: upstream^T (dp/dz).

    Composes, per recursion level in reverse, the Jacobian of the
    normalized radial push r*(||d||^2 I - d d^T)/||d||^3 and the sparsemax
    Jacobian.  Coordinates zeroed anywhere along the chain have identically
    zero columns; round-off there is dropped so the zeros are exact.
    """
    if not result.levels:
        raise InvalidStateError("projection result is missing saved intermediates")
    g = check_array("upstream vector", upstream)
    if g.shape != result.p.shape:
        raise InvalidInputError("upstream vector has the wrong length")
    g = g.tolist()
    k = len(g)
    for level in reversed(result.levels):
        if level.d is not None:
            if level.degenerate:
                # Fallback direction is locally constant, so the radial
                # push does not depend on the sparsemax output at all.
                g = [0.0] * k
            else:
                d, nd = level.d, level.d_norm
                along = _dot(d, g) / (nd * nd)
                scale = level.r / nd
                g = [scale * (a - along * b) for a, b in zip(g, d)]
        support = level.support
        gs = [0.0] * k
        if support:
            mean = _sum([g[i] for i in support]) / len(support)
            for i in support:
                gs[i] = g[i] - mean
        g = gs
    return np.array([0.0 if q == 0.0 else a for q, a in zip(result.p.tolist(), g)])


def recursion_signature(result: ProjectionResult) -> tuple:
    """Discrete structure of a projection: per-level support and whether
    the radial push ran.  Equal signatures on both sides of a point imply
    the map is smooth there."""
    return tuple((lv.support, lv.d is not None) for lv in result.levels)


def is_smooth_point(z, r: float) -> bool:
    """True when (z, r) sits away from every stage boundary: the recursion
    structure holds for r +- 1e-3 and for each z_j +- 1e-4.

    The projection is continuous but not differentiable where the
    recursion structure changes; finite-difference checks must avoid
    those points.
    """
    dr, dz = 1e-3, 1e-4
    z = as_logits(z)
    check_real("radius r", r, 0)
    if r - dr < 0 or r + dr > circumradius(z.size):
        return False
    res = sparsestmax(z, r)
    # Reject ill-conditioned radial pushes: finite differences lose
    # accuracy when the sparsemax output sits close to the face center.
    for lv in res.levels:
        if lv.d is not None and lv.d_norm < 1e-2:
            return False
    ref = recursion_signature(res)
    if recursion_signature(sparsestmax(z, r - dr)) != ref:
        return False
    if recursion_signature(sparsestmax(z, r + dr)) != ref:
        return False
    for j in range(z.size):
        for sign in (-1.0, 1.0):
            zj = z.copy()
            zj[j] += sign * dz
            if recursion_signature(sparsestmax(zj, r)) != ref:
                return False
    return True


def vjp_gradcheck(rng, k: int, trials: int, r_hi: float) -> float:
    """Worst relative error ||vjp - fd|| / max(||fd||, ||vjp||, 1e-3) of
    ``sparsestmax_vjp`` against central finite differences.  Each trial
    draws z ~ N(0, I), r ~ U(0.05, r_hi), skips non-smooth points and draws
    the upstream g ~ N(0, I).  The 1e-3 floor sits at the finite-difference
    noise scale, so zero gradients (pinned faces) add no spurious error."""
    check_integer("simplex dimension k", k, 2)
    check_integer("trials", trials, 1)
    check_real("r_hi", r_hi, 0.05, strict=True)
    eps = 1e-6
    worst = 0.0
    done = 0
    while done < trials:
        z = rng.normal(size=k)
        r = rng.uniform(0.05, r_hi)
        if not is_smooth_point(z, r):
            continue
        g = rng.normal(size=k)
        analytic = sparsestmax_vjp(sparsestmax(z, r), g)
        fd = np.empty(k)
        for i in range(k):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fd[i] = (g @ sparsestmax(zp, r).p -
                     g @ sparsestmax(zm, r).p) / (2 * eps)
        denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-3)
        worst = max(worst, float(np.linalg.norm(analytic - fd) / denom))
        done += 1
    return worst
