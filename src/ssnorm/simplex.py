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
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, InvalidStateError

# Below this distance from the center, the radial direction is undefined
# and a deterministic fallback direction is used.
DEGENERATE_TOL = 1e-12


class Stage(str, Enum):
    SPARSEMAX = "Sparsemax"
    CIRCLE = "Circle"
    FACE = "Face"
    VERTEX = "Vertex"


def as_logits(z) -> np.ndarray:
    """Validate and copy a logits vector: 1-D, length >= 2, all finite."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise InvalidInputError("logits must be a 1-D vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logits must be finite")
    return z.copy()


@dataclass(frozen=True)
class SimplexGeometry:
    """Regular (k-1)-simplex embedded in R^k: center and radii."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidInputError("simplex dimension k must be >= 2")

    @property
    def center(self) -> np.ndarray:
        return np.full(self.k, 1.0 / self.k)

    @property
    def r_circum(self) -> float:
        return math.sqrt((self.k - 1) / self.k)

    @property
    def r_inscribed(self) -> float:
        return math.sqrt(1.0 / (self.k * (self.k - 1)))


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
        if len(knots) < 2 or not all(isinstance(s, numbers.Integral) and
                                     isinstance(r, numbers.Real) for s, r in knots):
            raise InvalidInputError("schedule needs two or more [step, r] knots")
        steps, radii = zip(*knots)
        if steps[0] != 0 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise InvalidInputError("schedule steps must increase from 0")
        if not all(math.isfinite(r) and r >= 0 for r in radii) or \
                any(b < a for a, b in zip(radii, radii[1:])):
            raise InvalidInputError("schedule radii must be finite, >= 0 and non-decreasing")
        object.__setattr__(self, "knots", tuple((int(s), float(r)) for s, r in knots))

    def radius(self, step: int, geometry: SimplexGeometry) -> float:
        """Radius at ``step``, clamped to the circumradius of ``geometry``.
        A step on an interior knot is read from the segment ending there."""
        if not 0 <= step <= self.knots[-1][0]:
            raise InvalidInputError(
                f"step {step} outside schedule range [0, {self.knots[-1][0]}]")
        for (s0, r0), (s1, r1) in zip(self.knots, self.knots[1:]):
            if step <= s1:
                return min(geometry.r_circum, r0 + (r1 - r0) * (step - s0) / (s1 - s0))


def softmax(z) -> np.ndarray:
    """Shift-invariant softmax; strictly positive output."""
    z = as_logits(z)
    e = np.exp(z - z.max())
    return e / e.sum()


def _sparsemax_raw(z: np.ndarray) -> np.ndarray:
    # Sort-based threshold evaluation, O(K log K).  Sparsemax is
    # shift-invariant, so subtracting the maximum is exact; it keeps the +1
    # in the threshold from being lost to rounding at extreme magnitudes.
    z = z - z.max()
    k = z.size
    z_sorted = np.sort(z)[::-1]
    cumsum = np.cumsum(z_sorted)
    ks = np.arange(1, k + 1)
    feasible = 1.0 + ks * z_sorted > cumsum
    a = int(ks[feasible][-1])
    tau = (cumsum[a - 1] - 1.0) / a
    p = z - tau
    np.maximum(p, 0.0, out=p)
    return p


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a 1-D float64 vector, without its
    # per-call dispatch.
    return math.sqrt(v @ v)


def sparsemax(z) -> np.ndarray:
    """Euclidean projection of ``z`` onto the probability simplex."""
    return _sparsemax_raw(as_logits(z))


@dataclass(frozen=True)
class ProjectionLevel:
    """One recursion level of the staged projection, kept for the backward
    pass.  ``d`` is the radial direction (sparsemax output minus the level's
    face center); ``applied_circle`` records whether the radial push ran."""

    z_in: np.ndarray
    p_sm: np.ndarray
    support: np.ndarray
    u: np.ndarray
    r: float
    d: np.ndarray | None
    d_norm: float
    applied_circle: bool
    degenerate: bool = False


@dataclass(frozen=True)
class ProjectionResult:
    p: np.ndarray
    stage: Stage
    support: np.ndarray
    levels: tuple[ProjectionLevel, ...]


def _vertex_result(z: np.ndarray, p0: np.ndarray, u: np.ndarray,
                   geom: SimplexGeometry) -> ProjectionResult:
    # At r == r_circum only the vertices are feasible; the closest one is
    # the argmax of the sparsemax output (argmax of z when p0 is uniform).
    if _norm(p0 - u) < DEGENERATE_TOL:
        m = int(np.argmax(z))
    else:
        m = int(np.argmax(p0))
    p = np.zeros(geom.k)
    p[m] = 1.0
    levels = (
        ProjectionLevel(z, p0, np.flatnonzero(p0 > 0.0), u, geom.r_circum,
                        None, 0.0, False),
        ProjectionLevel(p0, p, np.array([m]), u, geom.r_circum,
                        None, 0.0, False),
    )
    return ProjectionResult(p=p, stage=Stage.VERTEX, support=np.array([m]), levels=levels)


def sparsestmax(z, r: float, geometry: SimplexGeometry | None = None) -> ProjectionResult:
    """Project ``z`` onto the simplex restricted to ``||p - u||_2 >= r``.

    Staged evaluation: take the plain sparsemax if it already satisfies the
    radial constraint; otherwise push it radially onto the circle; if that
    leaves the simplex, re-project onto the touched face and recurse on the
    face with the reduced radius.  ``r`` is clamped to the circumradius,
    at which point the output is exactly one-hot.
    """
    z = as_logits(z)
    k = z.size
    geom = geometry if geometry is not None else SimplexGeometry(k)
    if geom.k != k:
        raise InvalidInputError(f"geometry is for k={geom.k}, logits have k={k}")
    if not np.isfinite(r) or r < 0:
        raise InvalidInputError("radius r must be finite and >= 0")
    r = min(float(r), geom.r_circum)

    u = geom.center
    p0 = _sparsemax_raw(z)
    if _norm(p0 - u) >= r:
        level = ProjectionLevel(z, p0, np.flatnonzero(p0 > 0.0), u, r,
                                None, 0.0, False)
        return ProjectionResult(p=p0, stage=Stage.SPARSEMAX,
                                support=np.flatnonzero(p0 > 0.0), levels=(level,))
    if r == geom.r_circum:
        return _vertex_result(z, p0, u, geom)

    # Each level projects once: level 0 starts from p0, and a face level
    # from the re-projection p2 of its own input z_cur = p1.
    levels: list[ProjectionLevel] = []
    z_cur, p_sm, r_cur = z, p0, r
    p_out = None
    while True:
        support = np.flatnonzero(p_sm > 0.0)
        face = np.flatnonzero(u > 0.0)
        if face.size == 1:
            # The recursion shrank the face to a single vertex.
            p_out = u.copy()
            levels.append(ProjectionLevel(z_cur, p_out, face, u, r_cur,
                                          None, 0.0, False))
            break
        d = p_sm - u
        # Drop d's round-off normal to the face (u is the face barycenter,
        # zero off it); the push scales d by r/||d|| and would amplify it.
        d -= d.sum() * u
        d_norm = _norm(d)
        if d_norm >= r_cur:
            levels.append(ProjectionLevel(z_cur, p_sm, support, u, r_cur,
                                          None, 0.0, False))
            p_out = p_sm
            break
        degenerate = d_norm < DEGENERATE_TOL
        if degenerate:
            m = face[int(np.argmax(z_cur[face]))]
            d = -u.copy()
            d[m] += 1.0
            d_norm = _norm(d)
        p1 = u + (r_cur / d_norm) * d
        levels.append(ProjectionLevel(z_cur, p_sm, support, u, r_cur,
                                      d, d_norm, True, degenerate))
        if np.all(p1 >= 0.0):
            p_out = p1
            break
        # Radial push left the simplex: re-project and recurse on the face
        # spanned by the support, with the center moved to its barycenter.
        p2 = _sparsemax_raw(p1)
        s2 = np.flatnonzero(p2 > 0.0)
        u_next = np.zeros(k)
        u_next[s2] = 1.0 / s2.size
        r_next = math.sqrt(max(r_cur ** 2 - float(np.sum((u - u_next) ** 2)), 0.0))
        z_cur, p_sm, u, r_cur = p1, p2, u_next, r_next

    support_out = np.flatnonzero(p_out > 0.0)
    if support_out.size == 1:
        stage = Stage.VERTEX
    elif len(levels) == 1:
        stage = Stage.CIRCLE
    else:
        stage = Stage.FACE
    return ProjectionResult(p=p_out, stage=stage, support=support_out,
                            levels=tuple(levels))


def sparsestmax_vjp(result: ProjectionResult, upstream) -> np.ndarray:
    """Pull ``upstream`` back through the projection: upstream^T (dp/dz).

    Composes, per recursion level in reverse, the Jacobian of the
    normalized radial push r*(||d||^2 I - d d^T)/||d||^3 and the sparsemax
    Jacobian.  Coordinates zeroed anywhere along the chain have identically
    zero columns; round-off there is dropped so the zeros are exact.
    """
    if not result.levels:
        raise InvalidStateError("projection result is missing saved intermediates")
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != result.p.shape:
        raise InvalidInputError("upstream vector has the wrong length")
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("upstream vector must be finite")
    g = g.copy()
    for level in reversed(result.levels):
        if level.applied_circle:
            if level.degenerate:
                # Fallback direction is locally constant, so the radial
                # push does not depend on the sparsemax output at all.
                g = np.zeros_like(g)
            else:
                d, nd = level.d, level.d_norm
                g = (level.r / nd) * (g - (float(d @ g) / (nd * nd)) * d)
        s = level.support
        gs = np.zeros_like(g)
        if s.size:
            gs[s] = g[s] - g[s].mean()
        g = gs
    g[result.p == 0.0] = 0.0
    return g


def recursion_signature(result: ProjectionResult) -> tuple:
    """Discrete structure of a projection: per-level support and whether
    the radial push ran.  Equal signatures on both sides of a point imply
    the map is smooth there."""
    return tuple((tuple(int(i) for i in lv.support), lv.applied_circle)
                 for lv in result.levels)


def is_smooth_point(z, r: float, geometry: SimplexGeometry | None = None,
                    margin: float = 1e-3, z_margin: float = 1e-4) -> bool:
    """True when (z, r) sits away from every stage boundary.

    The projection is continuous but not differentiable where the
    recursion structure changes; finite-difference checks must avoid
    those points.
    """
    z = as_logits(z)
    geom = geometry if geometry is not None else SimplexGeometry(z.size)
    if r - margin < 0 or r + margin > geom.r_circum:
        return False
    try:
        res = sparsestmax(z, r, geom)
        # Reject ill-conditioned radial pushes: finite differences lose
        # accuracy when the sparsemax output sits close to the face center.
        for lv in res.levels:
            if lv.applied_circle and lv.d_norm < 1e-2:
                return False
        ref = recursion_signature(res)
        if recursion_signature(sparsestmax(z, r - margin, geom)) != ref:
            return False
        if recursion_signature(sparsestmax(z, r + margin, geom)) != ref:
            return False
        for j in range(z.size):
            for sign in (-1.0, 1.0):
                zj = z.copy()
                zj[j] += sign * z_margin
                if recursion_signature(sparsestmax(zj, r, geom)) != ref:
                    return False
    except InvalidInputError:
        return False
    return True


def vjp_gradcheck(rng, k: int, trials: int, r_hi: float) -> float:
    """Worst relative error ||vjp - fd|| / max(||fd||, ||vjp||, 1e-3) of
    ``sparsestmax_vjp`` against central finite differences.  Each trial
    draws z ~ N(0, I), r ~ U(0.05, r_hi), skips non-smooth points and draws
    the upstream g ~ N(0, I).  The 1e-3 floor sits at the finite-difference
    noise scale, so zero gradients (pinned faces) add no spurious error."""
    geom = SimplexGeometry(k)
    eps = 1e-6
    worst = 0.0
    done = 0
    while done < trials:
        z = rng.normal(size=k)
        r = rng.uniform(0.05, r_hi)
        if not is_smooth_point(z, r, geom):
            continue
        g = rng.normal(size=k)
        analytic = sparsestmax_vjp(sparsestmax(z, r, geom), g)
        fd = np.empty(k)
        for i in range(k):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fd[i] = (g @ sparsestmax(zp, r, geom).p -
                     g @ sparsestmax(zm, r, geom).p) / (2 * eps)
        denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-3)
        worst = max(worst, float(np.linalg.norm(analytic - fd) / denom))
        done += 1
    return worst
