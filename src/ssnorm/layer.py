"""Sparse switchable normalization over NCHW tensors.

Per-normalizer statistics (IN, BN, LN, optional GN) are mixed by two
independent gates — one for means, one for variances — whose ratios come
from the radius-constrained simplex projection.  One statistics core
serves every normalizer: ``REDUCE_AXES`` names the axes each one reduces
over in an (N, G, C/G, H*W) view of the input, and the mixed moments are
applied as a fused per-(n, c) scale and shift.  The exact backward pass
collapses the same way to per-(n, c) coefficients.  Also includes
running-statistics bookkeeping for evaluation mode and BN folding into a
preceding convolution.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidStateError, NotConvergedError
from .simplex import ProjectionResult, circumradius, sparsestmax, sparsestmax_vjp

NORMALIZER_ORDER = ("IN", "BN", "LN", "GN")

TRAIN = "train"
EVAL = "eval"

# Weight of the batch moments in the BN running-statistics average.
BN_MOMENTUM = 0.1


def _validate_tensor4(x) -> np.ndarray:
    """Shape and size checks only; ``ssn_forward`` checks finiteness."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise InvalidInputError("activation tensor must have shape (N, C, H, W)")
    if x.size == 0:
        raise InvalidInputError("activation tensor must be non-empty")
    return x


def validate_omega(omega) -> tuple[str, ...]:
    omega = tuple(omega)
    if len(omega) < 2:
        raise InvalidInputError("omega must contain at least two normalizers")
    if any(name not in NORMALIZER_ORDER for name in omega):
        raise InvalidInputError(f"unknown normalizer in omega: {omega}")
    if len(set(omega)) != len(omega):
        raise InvalidInputError("omega contains duplicates")
    order = [NORMALIZER_ORDER.index(name) for name in omega]
    if order != sorted(order):
        raise InvalidInputError(f"omega must be ordered as {NORMALIZER_ORDER}")
    return omega


# Axes each normalizer reduces over in the (N, G, C/G, H*W) view of x, where
# G is the GN group count when GN is in omega and 1 otherwise.  Per-(n, c)
# arrays keep a size-1 last axis in the same view, so the same axes sum a
# statistic's adjoint in the backward pass.
REDUCE_AXES = {"IN": (3,), "BN": (0, 3), "LN": (1, 2, 3), "GN": (2, 3)}

# The same reductions as einsum subscripts of a sum of squares: the output
# keeps the axes of "ngkh" that ``REDUCE_AXES`` leaves.
SQUARE_SUBSCRIPTS = {
    name: "ngkh,ngkh->" + "".join(l for i, l in enumerate("ngkh") if i not in axes)
    for name, axes in REDUCE_AXES.items()}

# Bytes of one block of whole samples in the backward's sweeps over x and g,
# about the per-core L2 of the reference host: a block read by one pass is
# still in cache for the next.
BLOCK_BYTES = 1 << 21


def _grouped_shape(shape, omega, gn_groups: int) -> tuple[int, int, int, int]:
    """The (N, G, C/G, H*W) view that ``REDUCE_AXES`` indexes."""
    n, c, h, w = shape
    groups = gn_groups if "GN" in omega else 1
    if groups < 1 or c % groups != 0:
        raise InvalidInputError(f"channels ({c}) not divisible by groups ({groups})")
    return n, groups, c // groups, h * w


def _sample_blocks(view, *arrays) -> list[tuple[np.ndarray, ...]]:
    """Cut the N axis of the grouped view into blocks of whole float64
    samples, as many as fit in ``BLOCK_BYTES`` and at least one, and give
    each block's views of ``arrays`` (the full tensors or per-(n, c)
    arrays).  A single block is the arrays themselves."""
    step = max(1, BLOCK_BYTES // (8 * math.prod(view[1:])))
    if step >= view[0]:
        return [arrays]
    return [tuple(a[i:i + step] for a in arrays) for i in range(0, view[0], step)]


@dataclass
class GateParams:
    """Control logits for the mean and variance gates, plus freeze flags.

    A frozen flag is set permanently once the corresponding importance
    ratio has been observed exactly one-hot."""

    z_mean: np.ndarray
    z_var: np.ndarray
    frozen_mean: bool = False
    frozen_var: bool = False


@dataclass
class SsnParams:
    gate: GateParams
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5
    bn_running_mean: np.ndarray = None
    bn_running_var: np.ndarray = None
    mode: str = TRAIN

    def __post_init__(self):
        c = np.size(self.gamma)
        if self.bn_running_mean is None:
            self.bn_running_mean = np.zeros(c)
        if self.bn_running_var is None:
            self.bn_running_var = np.ones(c)
        _check_params(self, np.size(self.gate.z_mean), c)

    @classmethod
    def init(cls, channels: int, k: int, z_init: float = 1.0):
        gate = GateParams(z_mean=np.full(k, z_init), z_var=np.full(k, z_init))
        return cls(gate=gate, gamma=np.ones(channels), beta=np.zeros(channels))


def _check_params(params: SsnParams, k: int, c: int) -> None:
    """Every rule of a valid ``SsnParams`` with k normalizers and c channels.
    Callers reassign fields after construction, so each entry point runs it."""
    if params.mode not in (TRAIN, EVAL):
        raise InvalidInputError(f"mode must be {TRAIN!r} or {EVAL!r}, got {params.mode!r}")
    if not (math.isfinite(params.eps) and params.eps > 0):
        raise InvalidInputError(f"eps must be finite and > 0, got {params.eps!r}")
    gate = params.gate
    shapes = (getattr(gate.z_mean, "shape", None), getattr(gate.z_var, "shape", None))
    if shapes != ((k,), (k,)):
        raise InvalidInputError(f"gate logits length must match |omega| = {k}, got "
                                f"z_mean {shapes[0]} and z_var {shapes[1]}")
    for name in ("gamma", "beta", "bn_running_mean", "bn_running_var"):
        value = getattr(params, name)
        shape = getattr(value, "shape", None)
        pre = "running statistics: " if name.startswith("bn") else ""
        if shape != (c,):
            like = "" if name == "gamma" else " like gamma"
            raise InvalidInputError(f"{pre}{name} must have shape ({c},){like}, got {shape}")
        # Faster than np.isfinite on the short vectors a layer carries.
        if not all(map(math.isfinite, value.tolist())):
            raise InvalidInputError(f"{pre}{name} must be finite")
    if c and params.bn_running_var.min() < 0:
        raise InvalidInputError("running variances must be >= 0, got bn_running_var "
                                f"with min {params.bn_running_var.min():g}")


@dataclass
class SsnCache:
    """Forward intermediates for the backward pass, in the shapes it reads
    them.  ``view`` is the (N, G, C/G, H*W) shape that ``REDUCE_AXES``
    indexes.  ``stats`` maps each active normalizer to its (mean, variance)
    with keepdims over its own axes of that view; a variance computed from
    x is None where the variance gate's ratio is zero.
    ``mu`` and ``inv_std`` are the mixed moments per (n, c) and ``scale``
    is the per-(n, c) scale the forward applied, ``gamma * inv_std``."""

    x: np.ndarray
    omega: tuple[str, ...]
    view: tuple[int, int, int, int]
    p_res: ProjectionResult
    pp_res: ProjectionResult
    stats: dict
    mu: np.ndarray
    inv_std: np.ndarray
    scale: np.ndarray
    mode: str
    frozen_mean: bool
    frozen_var: bool


def ssn_forward(x, params: SsnParams, r: float, omega, gn_groups: int = 32):
    """Normalize ``x`` with gate-mixed statistics.

    Both gates are projected independently with the same radius.  Only the
    normalizers with nonzero ratio in either gate have their statistics
    computed, so a one-hot layer touches a single normalizer.  In both
    modes a variance is computed only where the variance gate's ratio is
    nonzero.  In eval mode the BN path reads the running statistics.  One
    centered copy of ``x`` serves every statistic taken from ``x``: each
    mean after the first re-centres it in place.  The mixed moments are
    applied as one per-(n, c) scale and shift, ``y = x * a + b``, in place
    on that copy.  Finiteness of ``x`` is read off the mixed moments; the
    full check of ``x`` runs only when they are not finite or when no
    statistic came from ``x``.  A rejected ``x`` raises with no numpy warning.
    """
    x = _validate_tensor4(x)
    omega = validate_omega(omega)
    _check_params(params, len(omega), x.shape[1])
    view = _grouped_shape(x.shape, omega, gn_groups)
    per_nc = view[:3] + (1,)
    p_res = sparsestmax(params.gate.z_mean, r)
    pp_res = sparsestmax(params.gate.z_var, r)
    p, pp = p_res.p, pp_res.p

    xv = x.reshape(view)
    centered = None  # x minus ``shift``, the last mean computed from x
    shift = 0.0
    stats = {}
    mu = np.zeros(per_nc)
    var = np.zeros(per_nc)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, name in enumerate(omega):
            if p[i] == 0.0 and pp[i] == 0.0:
                continue
            if name == "BN" and params.mode == EVAL:
                mean_k = params.bn_running_mean.reshape(per_nc[1:])
                var_k = params.bn_running_var.reshape(per_nc[1:])
            else:
                mean_k = xv.mean(axis=REDUCE_AXES[name], keepdims=True)
                # The first mean allocates the centered copy; each later one
                # re-centres it in place, from the previous mean to its own.
                if centered is None:
                    centered = xv - mean_k
                else:
                    centered -= mean_k - shift
                shift = mean_k
                var_k = None
                if pp[i] != 0.0:
                    sum_sq = np.einsum(SQUARE_SUBSCRIPTS[name], centered, centered)
                    var_k = (sum_sq / (xv.size // mean_k.size)).reshape(mean_k.shape)
            stats[name] = (mean_k, var_k)
            if p[i] != 0.0:
                mu += p[i] * mean_k
            if pp[i] != 0.0:
                var += pp[i] * var_k

        # Each normalizer's groups partition x, so a NaN or inf element makes
        # its group's mean non-finite and its variance NaN (the centered copy
        # holds NaN there); a ratio > 0 carries that into mu or var.  The full
        # pass over x runs when no statistic came from x, or to tell a
        # non-finite x from a finite one whose sums overflow.
        if centered is None or not (np.isfinite(mu).all() and np.isfinite(var).all()):
            if not np.all(np.isfinite(x)):
                raise InvalidInputError("activation tensor must be finite")

    # y = x * a + b with a = gamma / sqrt(var + eps) and b = beta - mu * a,
    # applied in place to the centered copy when there is one:
    # y = (x - shift) * a + (b + shift * a).
    inv_std = 1.0 / np.sqrt(var + params.eps)
    a = params.gamma.reshape(per_nc[1:]) * inv_std
    y = np.multiply(xv if centered is None else centered, a, out=centered)
    y += params.beta.reshape(per_nc[1:]) - (mu - shift) * a
    cache = SsnCache(x=x, omega=omega, view=view, p_res=p_res, pp_res=pp_res,
                     stats=stats, mu=mu, inv_std=inv_std, scale=a,
                     mode=params.mode, frozen_mean=params.gate.frozen_mean,
                     frozen_var=params.gate.frozen_var)
    return y.reshape(x.shape), cache


@dataclass
class SsnGrads:
    x: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    z_mean: np.ndarray
    z_var: np.ndarray


def ssn_backward(cache: SsnCache, upstream) -> SsnGrads:
    """Exact gradients of the normalization wrt inputs, affine parameters
    and both gate logit vectors.

    Every normalizer's mean and variance terms reduce to per-(n, c)
    coefficients, so ``grad_x = x * coef + const + g * alpha`` takes the
    same two sweeps over x and g whatever the number of normalizers.
    Each sweep goes through blocks of whole samples (``BLOCK_BYTES``), so
    a block read by one pass is still in cache for the next and the only
    full-size array written is ``grad_x``.  Per-row sums do not depend on
    the blocks, so neither do the gradients.  Finiteness of the upstream
    tensor and overflow of its sums are read off its per-(n, c) sums, with
    no numpy warning when it is rejected.  Gate gradients flow through the
    projection's vector-Jacobian product, so zero-ratio normalizers get
    exactly-zero logit gradients; frozen gates get zeros unconditionally.
    """
    if cache.mode != TRAIN:
        raise InvalidStateError("backward requires a train-mode cache")
    g = np.asarray(upstream, dtype=np.float64)
    x, omega, view = cache.x, cache.omega, cache.view
    if g.shape != x.shape:
        raise InvalidInputError("upstream tensor shape must match the input")
    per_nc = view[:3] + (1,)
    xv, gv = x.reshape(view), g.reshape(view)
    p, pp = cache.p_res.p, cache.pp_res.p
    s, mu, a = cache.inv_std, cache.mu, cache.scale

    # Sweep 1: per-(n, c) sums of g and g * x, a block of g read once from
    # memory for both.
    sums = np.empty((2,) + view[:3])
    with np.errstate(over="ignore", invalid="ignore"):
        for gb, xb, sum_gb, sum_gxb in _sample_blocks(view, gv, xv, sums[0], sums[1]):
            np.add.reduce(gb, axis=3, out=sum_gb)
            np.einsum("ngkh,ngkh->ngk", gb, xb, out=sum_gxb)
        # x is finite (the forward checked it), so a NaN or inf in g makes
        # its row's sums, and so their total, non-finite.  The full check
        # tells that from a finite g whose sums, or their total, overflow;
        # that g is too large to give finite gradients and is rejected as such.
        if not math.isfinite(sums.sum()):
            if not np.isfinite(g).all():
                raise InvalidInputError("upstream tensor must be finite")
            raise InvalidInputError("upstream tensor is too large: its sums overflow")
    sum_g, sum_gx = sums[0, ..., None], sums[1, ..., None]
    sum_gxhat = s * (sum_gx - mu * sum_g)
    grad_beta = sum_g.sum(axis=0).reshape(-1)
    grad_gamma = sum_gxhat.sum(axis=0).reshape(-1)

    # Gradients wrt the mixed per-(n, c) statistics.
    g_mu = -a * sum_g
    g_var = -0.5 * a * s * sum_gxhat

    # Each statistic's adjoint is a sum over its own axes: a mean adds a
    # constant, a variance adds a multiple of (x - mean).
    coef = np.zeros(per_nc)
    const = np.zeros(per_nc)
    g_p = np.zeros(len(omega))
    g_pp = np.zeros(len(omega))
    for i, name in enumerate(omega):
        if p[i] == 0.0 and pp[i] == 0.0:
            continue
        axes = REDUCE_AXES[name]
        mean_k, var_k = cache.stats[name]
        m = xv.size // mean_k.size
        if p[i] != 0.0:
            g_p[i] = float((g_mu * mean_k).sum())
            const += (p[i] / m) * g_mu.sum(axis=axes, keepdims=True)
        if pp[i] != 0.0:
            g_pp[i] = float((g_var * var_k).sum())
            t = (2.0 * pp[i] / m) * g_var.sum(axis=axes, keepdims=True)
            coef += t
            const -= t * mean_k

    # Sweep 2: grad_x block by block, g * alpha through one block-sized
    # scratch buffer.
    grad_x = np.empty(view)
    blocks = _sample_blocks(view, grad_x, xv, gv, coef, const, a)
    scratch = np.empty_like(blocks[0][0])
    for out, xb, gb, coef_b, const_b, alpha_b in blocks:
        np.multiply(xb, coef_b, out=out)
        out += const_b
        out += np.multiply(gb, alpha_b, out=scratch[:len(out)])
    grad_z_mean = np.zeros(len(omega)) if cache.frozen_mean else \
        sparsestmax_vjp(cache.p_res, g_p)
    grad_z_var = np.zeros(len(omega)) if cache.frozen_var else \
        sparsestmax_vjp(cache.pp_res, g_pp)
    return SsnGrads(x=grad_x.reshape(x.shape), gamma=grad_gamma,
                    beta=grad_beta, z_mean=grad_z_mean, z_var=grad_z_var)


def update_running_stats(params: SsnParams, batch_mean, batch_var) -> SsnParams:
    """Exponential moving average update of the BN running statistics,
    weighting the batch moments by ``BN_MOMENTUM``; ``train`` does not call it."""
    batch_mean = np.asarray(batch_mean, dtype=np.float64)
    batch_var = np.asarray(batch_var, dtype=np.float64)
    if batch_mean.shape != params.bn_running_mean.shape or \
            batch_var.shape != params.bn_running_var.shape:
        raise InvalidInputError("batch moments must have the running statistics' shape")
    params.bn_running_mean = (1.0 - BN_MOMENTUM) * params.bn_running_mean + \
        BN_MOMENTUM * batch_mean
    params.bn_running_var = (1.0 - BN_MOMENTUM) * params.bn_running_var + \
        BN_MOMENTUM * batch_var
    return params


def select_normalizer(params: SsnParams, omega) -> tuple[str, str]:
    """Hot normalizer ids for the mean and variance gates.

    Only valid once both gates froze (i.e. both ratios went one-hot)."""
    omega = validate_omega(omega)
    _check_params(params, len(omega), np.size(params.gamma))
    if not (params.gate.frozen_mean and params.gate.frozen_var):
        raise NotConvergedError("both gates must be frozen one-hot")
    r_circum = circumradius(len(omega))
    p = sparsestmax(params.gate.z_mean, r_circum).p
    pp = sparsestmax(params.gate.z_var, r_circum).p
    return omega[int(np.argmax(p))], omega[int(np.argmax(pp))]


def fold_bn_into_affine(conv_weight, conv_bias, params: SsnParams, omega):
    """Fold a BN-selected layer into the preceding convolution.

    Returns (weight', bias') such that conv(x, weight', bias') equals the
    normalized conv output computed from the running statistics."""
    choice = select_normalizer(params, omega)
    if choice != ("BN", "BN"):
        raise InvalidStateError(f"both gates must select BN, got {choice}")
    c = params.gamma.shape[0]
    w = np.asarray(conv_weight, dtype=np.float64)
    if w.ndim != 4 or w.shape[0] != c:
        raise InvalidInputError(
            f"conv weight must be 4-D with {c} output channels, got shape {w.shape}")
    b = np.zeros(c) if conv_bias is None else np.asarray(conv_bias, dtype=np.float64)
    if b.shape != (c,):
        raise InvalidInputError(f"conv bias must have shape ({c},), got {b.shape}")
    scale = params.gamma / np.sqrt(params.bn_running_var + params.eps)
    w_folded = w * scale[:, None, None, None]
    b_folded = (b - params.bn_running_mean) * scale + params.beta
    return w_folded, b_folded


def benchmark_forward(n: int, c: int, h: int, w: int, reps: int,
                      seed: int = 0) -> dict:
    """Median eval-mode forward time over IN, BN and LN: all-normalizer
    mixture vs one-hot.

    Returns combined/sparse medians in milliseconds and their ratio."""
    if min(n, c, h, w) < 1:
        raise InvalidInputError("benchmark dims must be positive")
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    omega = ("IN", "BN", "LN")
    k = len(omega)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))

    sparse = SsnParams.init(c, k)
    sparse.mode = EVAL
    # Select IN so the sparse path computes exactly one batch statistic.
    sparse.gate.z_mean = np.array([10.0, 0.0, 0.0])
    sparse.gate.z_var = sparse.gate.z_mean.copy()
    sparse.gate.frozen_mean = sparse.gate.frozen_var = True

    combined = SsnParams.init(c, k)
    combined.mode = EVAL

    def _median_ms(params, r):
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            ssn_forward(x, params, r, omega)
            out.append((time.perf_counter() - t0) * 1e3)
        return float(np.median(out))

    # Warm-up excluded from timing.
    ssn_forward(x, combined, 0.0, omega)
    ssn_forward(x, sparse, circumradius(k), omega)
    combined_ms = _median_ms(combined, 0.0)
    sparse_ms = _median_ms(sparse, circumradius(k))
    return {"combined_ms": combined_ms, "sparse_ms": sparse_ms,
            "ratio": combined_ms / sparse_ms}
