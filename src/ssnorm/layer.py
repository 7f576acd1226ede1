"""Sparse switchable normalization over NCHW tensors.

Per-normalizer statistics (IN, BN, LN, optional GN) are mixed by two
independent gates — one for means, one for variances — whose ratios come
from the radius-constrained simplex projection.  One statistics core
serves every normalizer: ``REDUCE_AXES`` names the axes each one reduces
over in an (N, G, C/G, H*W) view of the input, and the mixed moments are
applied as a fused per-(n, c) scale and shift.  The exact backward pass
collapses the same way to per-(n, c) coefficients.  The passes over a
tensor larger than one block are shared among one thread per usable core,
each taking whole samples, and the elementwise per-(n, c) passes over
long rows run with numpy's ufunc buffer cut to one row.  Also includes
running-statistics bookkeeping for evaluation mode and BN folding into a
preceding convolution.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
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
# arrays keep a size-1 last axis in the same view, so the same axes turn the
# per-(n, c) row sums of x into a statistic's sum, and sum a statistic's
# adjoint in the backward pass.
REDUCE_AXES = {"IN": (3,), "BN": (0, 3), "LN": (1, 2, 3), "GN": (2, 3)}

# Bytes of one block of whole samples, about the per-core L2 of the reference
# host.  A tensor that fits in one block is processed in the calling thread.
# The backward sweeps x and g block by block, so a block read by one pass is
# still in cache for the next.
BLOCK_BYTES = 1 << 21

# Threads that share a larger tensor's full-tensor passes, one per core this
# process may run on.  numpy releases the GIL in those passes.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1

# Shortest row of the (N, G, C/G, H*W) view whose elementwise per-(n, c)
# passes run with numpy's ufunc buffer cut to one row (``_row_buffered``).
# Shorter rows lose more to the extra inner loops than the cut saves.
ROW_BUFFER_MIN = 128


def _grouped_shape(shape, omega, gn_groups: int) -> tuple[int, int, int, int]:
    """The (N, G, C/G, H*W) view that ``REDUCE_AXES`` indexes."""
    n, c, h, w = shape
    groups = gn_groups if "GN" in omega else 1
    if groups < 1 or c % groups != 0:
        raise InvalidInputError(f"channels ({c}) not divisible by groups ({groups})")
    return n, groups, c // groups, h * w


def _sample_blocks(view, *arrays) -> list[tuple[np.ndarray, ...]]:
    """Cut the N axis of ``arrays`` (full tensors in the grouped ``view`` or
    per-(n, c) arrays, all with the same samples) into blocks of whole float64
    samples, as many as fit in ``BLOCK_BYTES`` and at least one, and give
    each block's views of them.  A single block is the arrays themselves."""
    n = len(arrays[0])
    step = max(1, BLOCK_BYTES // (8 * math.prod(view[1:])))
    if step >= n:
        return [arrays]
    return [tuple(a[i:i + step] for a in arrays) for i in range(0, n, step)]


@functools.cache
def _executor(workers: int, pid: int):
    """The pool of ``workers`` threads of process ``pid``, made on first
    use.  A forked child gets its own: the parent's pool has no threads
    there, so a task sent to it would never run.  The import is here
    because it alone takes about 14 ms, which a process whose tensors each
    fit in one block never needs."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="ssnorm")


def _map_samples(fn, view) -> list:
    """Results of ``fn(lo, hi)`` over ranges of whole samples that cover the
    N axis of a float64 tensor in the grouped ``view``, in sample order.  A
    tensor that fits in one ``BLOCK_BYTES`` block is one range, run in the
    calling thread; a larger one is cut into one range per worker (at most
    ``WORKERS``), each run in the pool under its own copy of the caller's
    context, so that numpy's ``errstate`` holds there too.  ``fn`` writes
    only samples lo:hi of its outputs and sums only within a sample, so its
    outputs are the same bits for any cut."""
    n = view[0]
    chunks = min(WORKERS, n) if 8 * math.prod(view) > BLOCK_BYTES else 1
    if chunks == 1:
        return [fn(0, n)]
    from concurrent.futures import wait
    bounds = [n * i // chunks for i in range(chunks + 1)]
    pool = _executor(WORKERS, os.getpid())
    futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
               for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    return [f.result() for f in futures]


def _row_buffered(fn, row: int):
    """``fn(lo, hi)`` run with numpy's ufunc buffer cut to at most one row
    of ``row`` elements, rounded down to a multiple of 16 as numpy requires.
    numpy's buffered loop copies an operand that is constant along a row,
    such as a per-(n, c) array, into its buffer whenever the buffer spans
    two rows, and skips that copy when it holds less.  The cut applies to
    rows of at least ``ROW_BUFFER_MIN`` elements where it is below the
    caller's buffer.  It is set inside the task, so in the thread that runs
    it, and the size that thread had comes back in a ``finally``: on numpy
    1.x the setting is per thread and outlives an ``errstate``.  The cut
    changes how a loop is chunked, never what it computes."""
    size = row - row % 16
    if row < ROW_BUFFER_MIN or size >= np.getbufsize():
        return fn

    def task(lo, hi):
        inherited = np.setbufsize(size)
        try:
            return fn(lo, hi)
        finally:
            np.setbufsize(inherited)
    return task


@dataclass
class GateParams:
    """Control logits for the mean and variance gates, plus freeze flags.

    The trainer owns the flags: it sets one permanently once the gate's
    ratio has been observed exactly one-hot, and stops updating that
    gate's logits.  In this module only ``select_normalizer`` reads them,
    as "this selection is final"; the forward and backward passes do not."""

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
    is the per-(n, c) scale the forward applied, ``gamma * inv_std``.
    ``p_res`` and ``pp_res`` are all the backward needs of the gates."""

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


def ssn_forward(x, params: SsnParams, r: float, omega, gn_groups: int = 32):
    """Normalize ``x`` with gate-mixed statistics.

    Both gates are projected independently with the same radius.  Only the
    normalizers with nonzero ratio in either gate have their statistics
    computed, so a one-hot layer touches a single normalizer.  In both
    modes a variance is computed only where the variance gate's ratio is
    nonzero.  In eval mode the BN path reads the running statistics.  One
    pass writes the per-(n, c) row sums of ``x``, and each mean taken from
    ``x`` is a sum of those.  One centered copy of ``x`` serves every
    variance: each mean re-centres it in place (the first writes it from
    ``x``), and the same pass sums its squares per row where a variance is
    due.  The mixed moments are applied as one per-(n, c) scale and shift,
    ``y = x * a + b``, in place on that copy.  Finiteness of ``x`` is read
    off the mixed moments; the full check of ``x`` runs only when they are
    not finite or when no statistic came from ``x``.  A rejected ``x``
    raises with no numpy warning.  Each full-tensor pass is shared among
    the workers (``_map_samples``), with the same bits for any count.
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
    rows = None  # per-(n, c) row sums of x
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
                if rows is None:
                    rows = np.empty(per_nc)
                    _map_samples(lambda lo, hi: np.add.reduce(
                        xv[lo:hi], axis=3, keepdims=True, out=rows[lo:hi]), view)
                axes = REDUCE_AXES[name]
                mean_k = np.add.reduce(rows, axis=axes, keepdims=True)
                m = xv.size // mean_k.size
                mean_k /= m
                # The first mean writes the centered copy; each later one
                # re-centres it in place, from the previous mean to its own.
                # The same pass sums squares per row where a variance is due.
                src = xv if centered is None else centered
                if centered is None:
                    centered = np.empty(view)
                delta = mean_k - shift
                sq = np.empty(per_nc) if pp[i] != 0.0 else None

                def recentre(lo, hi):
                    out = np.subtract(src[lo:hi], delta if len(delta) == 1 else
                                      delta[lo:hi], out=centered[lo:hi])
                    if sq is not None:
                        np.einsum("ngkh,ngkh->ngk", out, out, out=sq[lo:hi, ..., 0])
                _map_samples(_row_buffered(recentre, view[3]), view)
                shift = mean_k
                var_k = None
                if sq is not None:
                    var_k = np.add.reduce(sq, axis=axes, keepdims=True) / m
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
            if not all(_map_samples(
                    lambda lo, hi: bool(np.isfinite(xv[lo:hi]).all()), view)):
                raise InvalidInputError("activation tensor must be finite")

    # y = x * a + b with a = gamma / sqrt(var + eps) and b = beta - mu * a,
    # applied in place to the centered copy when there is one:
    # y = (x - shift) * a + (b + shift * a).
    inv_std = 1.0 / np.sqrt(var + params.eps)
    a = params.gamma.reshape(per_nc[1:]) * inv_std
    b = params.beta.reshape(per_nc[1:]) - (mu - shift) * a
    src = xv if centered is None else centered
    y = np.empty(view) if centered is None else centered

    def scale(lo, hi):
        out = np.multiply(src[lo:hi], a[lo:hi], out=y[lo:hi])
        out += b[lo:hi]
    _map_samples(_row_buffered(scale, view[3]), view)
    cache = SsnCache(x=x, omega=omega, view=view, p_res=p_res, pp_res=pp_res,
                     stats=stats, mu=mu, inv_std=inv_std, scale=a, mode=params.mode)
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
    full-size array written is ``grad_x``; each worker takes its own range
    of samples (``_map_samples``).  Per-row sums do not depend on the
    blocks or the workers, so neither do the gradients.  Finiteness of the
    upstream tensor and overflow of its sums are read off its per-(n, c)
    sums, with no numpy warning when it is rejected.  Gate gradients always
    flow through the projection's vector-Jacobian product, which gives
    zero-ratio normalizers exactly-zero logit gradients, and a one-hot gate
    an all-zero one; a non-finite gate gradient is rejected there.
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

    def sweep_1(lo, hi):
        for gb, xb, sum_gb, sum_gxb in _sample_blocks(
                view, gv[lo:hi], xv[lo:hi], sums[0, lo:hi], sums[1, lo:hi]):
            np.add.reduce(gb, axis=3, out=sum_gb)
            np.einsum("ngkh,ngkh->ngk", gb, xb, out=sum_gxb)
    with np.errstate(over="ignore", invalid="ignore"):
        _map_samples(sweep_1, view)
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
    # scratch buffer per worker.
    grad_x = np.empty(view)

    def sweep_2(lo, hi):
        blocks = _sample_blocks(view, grad_x[lo:hi], xv[lo:hi], gv[lo:hi],
                                coef[lo:hi], const[lo:hi], a[lo:hi])
        scratch = np.empty_like(blocks[0][0])
        for out, xb, gb, coef_b, const_b, alpha_b in blocks:
            np.multiply(xb, coef_b, out=out)
            out += const_b
            out += np.multiply(gb, alpha_b, out=scratch[:len(out)])
    _map_samples(_row_buffered(sweep_2, view[3]), view)
    return SsnGrads(x=grad_x.reshape(x.shape), gamma=grad_gamma, beta=grad_beta,
                    z_mean=sparsestmax_vjp(cache.p_res, g_p),
                    z_var=sparsestmax_vjp(cache.pp_res, g_pp))


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

    combined = SsnParams.init(c, k)
    combined.mode = EVAL

    paths = ((combined, 0.0), (sparse, circumradius(k)))
    # Warm-up excluded from timing.
    for params, r in paths:
        ssn_forward(x, params, r, omega)
    # One rep of each path per round, the order swapped every round, so a
    # change in the host's speed reaches both medians alike.
    times = ([], [])
    for rep in range(reps):
        for i in ((0, 1), (1, 0))[rep % 2]:
            t0 = time.perf_counter()
            ssn_forward(x, *paths[i], omega)
            times[i].append((time.perf_counter() - t0) * 1e3)
    combined_ms, sparse_ms = (float(np.median(t)) for t in times)
    return {"combined_ms": combined_ms, "sparse_ms": sparse_ms,
            "ratio": combined_ms / sparse_ms}
