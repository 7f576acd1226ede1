"""Reference implementations that only the tests use: a direct
convolution, the closed-form sparsemax Jacobian, a simplex-membership
check, central finite differences, a scalar-loop oracle of the gated
normalization and the moments of each plain normalizer, the revival and
frozen-gradient checks of a training log, numpy versions of the staged
projection and its VJP, and a brute-force grid oracle for the
projection."""
import math
from functools import lru_cache

import numpy as np

from ssnorm.errors import InvalidInputError
from ssnorm.layer import EVAL
from ssnorm.simplex import (DEGENERATE_TOL, ProjectionLevel, ProjectionResult,
                            Stage, as_logits, circumradius, sparsemax,
                            sparsestmax)


def conv2d(x, weight, bias=None) -> np.ndarray:
    """Direct convolution over NCHW input (stride 1, no padding)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[2:], axis=(2, 3))
    y = np.einsum("nchwij,ocij->nohw", windows, w)
    if bias is not None:
        y += np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return y


def sparsemax_jacobian(z) -> np.ndarray:
    """Jacobian of sparsemax: (delta_ij - 1/|S|) on the support S, else 0."""
    z = as_logits(z)
    support = np.flatnonzero(sparsemax(z) > 0.0)
    jac = np.zeros((z.size, z.size))
    jac[np.ix_(support, support)] = np.eye(support.size) - 1.0 / support.size
    return jac


def validate_prob_vector(p) -> np.ndarray:
    """Check simplex membership (sum 1 within 1e-12, entries >= 0).

    Negative round-off down to -1e-12 is clamped to exact zero.
    """
    p = np.asarray(p, dtype=np.float64).copy()
    if p.ndim != 1 or p.size < 2:
        raise InvalidInputError("probability vector must be 1-D of length >= 2")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("probability vector must be finite")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise InvalidInputError("probability vector must sum to 1 within 1e-12")
    if np.any(p < -1e-12):
        raise InvalidInputError("probability vector entries must be >= 0")
    np.maximum(p, 0.0, out=p)
    return p


def central_difference(loss, a, eps, indices=None) -> np.ndarray:
    """Central differences of the scalar ``loss()`` in the entries of ``a``.

    Each entry ``a.flat[i]`` is set in place to ``orig + eps``, then to
    ``orig - eps``, and restored.  Returns an array shaped like ``a``, or
    one value per index when ``indices`` picks flat entries."""
    out = np.empty(a.shape if indices is None else len(indices))
    for t, i in enumerate(range(a.size) if indices is None else indices):
        orig = a.flat[i]
        a.flat[i] = orig + eps
        lp = loss()
        a.flat[i] = orig - eps
        lm = loss()
        a.flat[i] = orig
        out.flat[t] = (lp - lm) / (2 * eps)
    return out


# The gated normalization: the SN/SSN mixture of IN, BN, LN and GN moments.

def forward_oracle(x, params, r, omega, gn_groups):
    """Pure scalar-loop reference of the gated normalization; in eval mode
    BN reads the running statistics."""
    n, c, h, w = x.shape
    p = sparsestmax(params.gate.z_mean, r).p
    pp = sparsestmax(params.gate.z_var, r).p
    y = np.empty_like(x)
    per = c // gn_groups if "GN" in omega else None
    for i in range(n):
        for j in range(c):
            mu_mix, var_mix = 0.0, 0.0
            for idx, name in enumerate(omega):
                if name == "BN" and params.mode == EVAL:
                    mu_mix += p[idx] * float(params.bn_running_mean[j])
                    var_mix += pp[idx] * float(params.bn_running_var[j])
                    continue
                if name == "IN":
                    vals = x[i, j].ravel()
                elif name == "BN":
                    vals = x[:, j].ravel()
                elif name == "LN":
                    vals = x[i].ravel()
                else:
                    g = j // per
                    vals = x[i, g * per:(g + 1) * per].ravel()
                m = float(np.mean(vals))
                v = float(np.mean((vals - m) ** 2))
                mu_mix += p[idx] * m
                var_mix += pp[idx] * v
            for a in range(h):
                for b in range(w):
                    y[i, j, a, b] = params.gamma[j] * \
                        (x[i, j, a, b] - mu_mix) / math.sqrt(var_mix + params.eps) + \
                        params.beta[j]
    return y


_PLAIN_AXES = {"IN": (2, 3), "BN": (0, 2, 3), "LN": (1, 2, 3), "GN": (2, 3, 4)}


def plain_moments(x, name, gn_groups=1):
    """(mean, var) of one plain normalizer over NCHW ``x``, each per (N, C)."""
    n, c, h, w = x.shape
    src = x.reshape(n, gn_groups, c // gn_groups, h, w) if name == "GN" else x
    return tuple(np.broadcast_to(moment(src, axis=_PLAIN_AXES[name], keepdims=True),
                                 src.shape[:-2] + (1, 1)).reshape(n, c)
                 for moment in (np.mean, np.var))


# Trajectory invariants of a training log, as (layer, gate, step) offenders.

def revived_ratios(log) -> list[tuple[int, str, int]]:
    """Steps at which a gate ratio that was zero at an earlier step is
    positive again."""
    found = []
    for li in range(log.layer_count):
        for gate, kind in (("mean", "p"), ("var", "pp")):
            zeroed = [False] * len(log.omega)
            for row in log.rows:
                vals = getattr(row.layers[li], kind)
                if any(z and v > 0.0 for z, v in zip(zeroed, vals)):
                    found.append((li, gate, row.step))
                zeroed = [z or v == 0.0 for z, v in zip(zeroed, vals)]
    return found


def frozen_gate_gradients(log) -> list[tuple[int, str, int]]:
    """Steps at which a gate frozen at an earlier step has a nonzero logit
    gradient."""
    found = []
    for li in range(log.layer_count):
        for gate in ("mean", "var"):
            frozen = False
            for row in log.rows:
                rec = row.layers[li]
                if frozen and any(g != 0.0 for g in getattr(rec, f"z_grad_{gate}")):
                    found.append((li, gate, row.step))
                frozen |= getattr(rec, f"frozen_{gate}")
    return found


# The projection as numpy array code: the same algorithm as
# ``ssnorm.simplex``, which runs it on Python floats.  numpy's 1-D ``v @ v``
# may fuse its multiply-adds, so the two agree to round-off, not bitwise.

def _sparsemax_numpy_raw(z: np.ndarray) -> np.ndarray:
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
    return math.sqrt(v @ v)


def sparsemax_numpy(z) -> np.ndarray:
    return _sparsemax_numpy_raw(as_logits(z))


def _support_numpy(p: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(p > 0.0).tolist())


def sparsestmax_numpy(z, r: float) -> ProjectionResult:
    z = as_logits(z)
    k = z.size
    if not np.isfinite(r) or r < 0:
        raise InvalidInputError("radius r must be finite and >= 0")
    r_circum = circumradius(k)
    r = min(float(r), r_circum)

    u = np.full(k, 1.0 / k)
    p0 = _sparsemax_numpy_raw(z)
    if _norm(p0 - u) >= r:
        return ProjectionResult(p0, Stage.SPARSEMAX,
                                (ProjectionLevel(_support_numpy(p0)),))
    if r == r_circum:
        m = int(np.argmax(z if _norm(p0 - u) < DEGENERATE_TOL else p0))
        p = np.zeros(k)
        p[m] = 1.0
        return ProjectionResult(p, Stage.VERTEX, (ProjectionLevel(_support_numpy(p0)),
                                                  ProjectionLevel((m,))))

    levels = []
    z_cur, p_sm, r_cur = z, p0, r
    p_out = None
    while True:
        face = np.flatnonzero(u > 0.0)
        if face.size == 1:
            p_out = u.copy()
            levels.append(ProjectionLevel(_support_numpy(u)))
            break
        d = p_sm - u
        d -= d.sum() * u
        d_norm = _norm(d)
        if d_norm >= r_cur:
            levels.append(ProjectionLevel(_support_numpy(p_sm)))
            p_out = p_sm
            break
        degenerate = d_norm < DEGENERATE_TOL
        if degenerate:
            m = face[int(np.argmax(z_cur[face]))]
            d = -u.copy()
            d[m] += 1.0
            d_norm = _norm(d)
        p1 = u + (r_cur / d_norm) * d
        levels.append(ProjectionLevel(_support_numpy(p_sm), tuple(d.tolist()), r_cur,
                                      d_norm, degenerate))
        if np.all(p1 >= 0.0):
            p_out = p1
            if np.count_nonzero(p1) == 1:
                levels.append(ProjectionLevel(_support_numpy(p1)))
            break
        p2 = _sparsemax_numpy_raw(p1)
        s2 = np.flatnonzero(p2 > 0.0)
        u_next = np.zeros(k)
        u_next[s2] = 1.0 / s2.size
        r_next = math.sqrt(max(r_cur ** 2 - float(np.sum((u - u_next) ** 2)), 0.0))
        z_cur, p_sm, u, r_cur = p1, p2, u_next, r_next

    if np.count_nonzero(p_out > 0.0) == 1:
        stage = Stage.VERTEX
    elif len(levels) == 1:
        stage = Stage.CIRCLE
    else:
        stage = Stage.FACE
    return ProjectionResult(p_out, stage, tuple(levels))


def sparsestmax_vjp_numpy(result: ProjectionResult, upstream) -> np.ndarray:
    g = np.asarray(upstream, dtype=np.float64).copy()
    for level in reversed(result.levels):
        if level.d is not None:
            if level.degenerate:
                g = np.zeros_like(g)
            else:
                d, nd = np.array(level.d), level.d_norm
                g = (level.r / nd) * (g - (float(d @ g) / (nd * nd)) * d)
        s = list(level.support)
        gs = np.zeros_like(g)
        if s:
            gs[s] = g[s] - g[s].mean()
        g = gs
    g[result.p == 0.0] = 0.0
    return g


# Brute-force grid oracle: enumerates a barycentric grid of the simplex,
# discards points inside the excluded ball and returns the grid point
# closest to the query.  Intentionally independent of the closed form.

MAX_K = 4


def _grid_counts(k: int, g: int) -> np.ndarray:
    """Integer compositions of g into k parts, one row per grid point."""
    if k == 2:
        i = np.arange(g + 1, dtype=np.int32)
        return np.stack([i, g - i], axis=1)
    if k == 3:
        i, j = np.meshgrid(np.arange(g + 1, dtype=np.int32),
                           np.arange(g + 1, dtype=np.int32), indexing="ij")
        i, j = i.ravel(), j.ravel()
        keep = i + j <= g
        i, j = i[keep], j[keep]
        return np.stack([i, j, g - i - j], axis=1)
    # k == 4: extend each (i, j) pair by every split of the remainder.
    base = _grid_counts(3, g)
    i, j, rem = base[:, 0], base[:, 1], base[:, 2]
    counts = rem.astype(np.int64) + 1
    total = int(counts.sum())
    row = np.repeat(np.arange(base.shape[0], dtype=np.int64), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    t = (np.arange(total, dtype=np.int64) - offsets).astype(np.int32)
    return np.stack([i[row], j[row], t, rem[row] - t], axis=1)


@lru_cache(maxsize=4)
def _grid(k: int, g: int):
    counts = _grid_counts(k, g)
    pts = counts.astype(np.float32) / np.float32(g)
    center_dist = np.sqrt(((pts - np.float32(1.0 / k)) ** 2).sum(axis=1))
    sq_norm = (pts * pts).sum(axis=1)
    return counts, pts, center_dist, sq_norm


def oracle_project(z, r: float, grid_n: int) -> np.ndarray:
    """Closest feasible grid point to ``z`` (resolution 1/grid_n).

    Supports k <= 4; the grid size is combinatorial in k.
    """
    z = as_logits(z)
    k = z.size
    if k > MAX_K:
        raise InvalidInputError(f"grid oracle supports k <= {MAX_K}, got {k}")
    if grid_n < 100:
        raise InvalidInputError("grid_n must be >= 100")
    if not np.isfinite(r) or r < 0:
        raise InvalidInputError("radius r must be finite and >= 0")
    counts, pts, center_dist, sq_norm = _grid(k, grid_n)
    # ||p - z||^2 up to the constant ||z||^2.
    obj = sq_norm - 2.0 * (pts @ z.astype(np.float32))
    # Small slack absorbs float32 round-off on the constraint boundary;
    # the vertices are always feasible so the mask is never empty.
    obj = np.where(center_dist >= np.float32(r) - np.float32(1e-6), obj, np.float32(np.inf))
    best = int(np.argmin(obj))
    return counts[best].astype(np.float64) / grid_n
