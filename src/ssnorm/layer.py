"""Sparse switchable normalization over NCHW tensors.

Per-normalizer statistics (IN, BN, LN, optional GN) are mixed by two
independent gates — one for means, one for variances — whose ratios come
from the radius-constrained simplex projection.  One statistics core
serves every normalizer: ``REDUCE_AXES`` names the axes each one reduces
over in an (N, G, C/G, H*W) view of the input, and the mixed moments are
applied as a fused per-(n, c) scale and shift.  Each pass of the forward
is a fixed block function.  Where train-mode BN, whose batch moments need
the whole batch, is live, a first pass (``row_moments``) takes per-(n, c)
row moments, every statistic is pooled from them, and ``normalize`` only
scales; everywhere else one ``normalize`` sweep per block of samples takes
every statistic and scales.  The exact backward pass collapses the same way
to per-(n, c) coefficients.  One runner cuts every full-tensor pass into blocks of
whole samples and shares them among one thread per usable core, with
numpy's ufunc buffer cut to one long row, and one rule checks x and the
upstream gradient for finiteness.  One allocator gives every full-size
output its memory and, above 32 MiB, reuses that of outputs no caller
still holds.  Also includes running-statistics bookkeeping for
evaluation mode and BN folding into a preceding convolution.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import sys
import threading
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, InvalidStateError, NotConvergedError, check_array,
                     check_integer, check_real)
from .simplex import ProjectionResult, circumradius, sparsestmax, sparsestmax_vjp

NORMALIZER_ORDER = ("IN", "BN", "LN", "GN")

TRAIN = "train"
EVAL = "eval"

# Weight of the batch moments in the BN running-statistics average.
BN_MOMENTUM = 0.1


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
# G is the GN group count when GN is in omega and 1 otherwise.  A statistic
# has size 1 on its axes and the view's size elsewhere.  Per-(n, c) arrays
# keep a size-1 last axis in the same view, so the same axes turn the
# per-(n, c) row sums of x into a statistic's sum, and sum a statistic's
# adjoint in the backward pass.
REDUCE_AXES = {"IN": (3,), "BN": (0, 3), "LN": (1, 2, 3), "GN": (2, 3)}

# Bytes of one block of whole samples, about the per-core L2 of the reference
# host.  Every full-tensor pass walks the samples block by block
# (``_map_samples``), and a tensor that fits in one block is processed in the
# calling thread.
BLOCK_BYTES = 1 << 21

# Threads that share a larger tensor's full-tensor passes, one per core this
# process may run on.  numpy releases the GIL in those passes.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1

# Shortest row of the grouped view whose passes cut numpy's ufunc buffer to
# one row (``_map_samples``); shorter rows lose more than the cut saves.
ROW_BUFFER_MIN = 128

# Bytes above which a full-size output reuses the memory of one that no
# caller still holds (``_full``).  Above 32 MiB, glibc's largest mmap
# threshold on 64-bit, every block is a fresh mapping, unmapped when freed,
# whose pages the kernel zeroes as the output is first written.
RECYCLE_BYTES = 32 << 20


@functools.cache
def _executor(workers: int, pid: int):
    """The pool of ``workers`` threads of process ``pid``, made on first
    use.  A forked child gets its own: the parent's pool has no threads
    there, so a task sent to it would never run.  The import is here
    because it alone takes about 14 ms, which a process whose tensors each
    fit in one block never needs."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="ssnorm")


@functools.cache
def _kept(pid: int) -> tuple[threading.Lock, list]:
    """The lock and the bases ``_full`` keeps (at most two, of any sizes)
    of process ``pid``.  A forked child gets its own, so it never waits for
    a lock its parent held at the fork."""
    return threading.Lock(), []


def _map_samples(fn, view) -> list:
    """Results of ``fn(lo, hi)`` over blocks of whole samples that cover the
    N axis of a float64 tensor in the grouped ``view``, in sample order.
    Every full-tensor pass of the layer runs here: the forward's
    ``row_moments`` and ``normalize`` and the backward's ``sweep_1`` and
    ``sweep_2``.  A block holds as many samples as fit in
    ``BLOCK_BYTES``, and at least one.  A one-block tensor is run in the
    calling thread; a larger one gets one range per worker (at most
    ``WORKERS``), run in the pool.  Each range runs under a copy of the
    caller's context, so that numpy's ``errstate`` holds there too, and is
    walked block by block, so a block stays in cache from one numpy
    operation of ``fn`` to the next.  Rows of at least
    ``ROW_BUFFER_MIN`` elements run with numpy's ufunc buffer cut to one row
    (a multiple of 16, as numpy requires) where the caller's is larger, so
    numpy's buffered loop stops copying a per-(n, c) operand into it.  Each
    range sets the cut in its context copy, which numpy drops with it.  A
    block that raises ends its range, and the error of the first range
    that raised is raised here once every worker is done.  ``fn`` writes
    only samples lo:hi of its outputs and sums only within a sample, and
    the cut changes how a loop is chunked, not what it computes, so the
    outputs are the same bits for any blocks, workers or cut."""
    n, row = view[0], view[3]
    step = max(1, BLOCK_BYTES // (8 * math.prod(view[1:])))
    size = row - row % 16
    cut = row >= ROW_BUFFER_MIN and size < np.getbufsize()
    if n <= step and not cut:
        return [fn(0, n)]

    def task(lo, hi):
        if cut:
            np.setbufsize(size)
        return [fn(i, min(i + step, hi)) for i in range(lo, hi, step)]
    chunks = min(WORKERS, n) if n > step else 1
    if chunks == 1:
        return contextvars.copy_context().run(task, 0, n)
    from concurrent.futures import wait
    bounds = [n * i // chunks for i in range(chunks + 1)]
    pool = _executor(WORKERS, os.getpid())
    futures = [pool.submit(contextvars.copy_context().run, task, lo, hi)
               for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    return [result for f in futures for result in f.result()]


@np.errstate(over="ignore", invalid="ignore")
def _quietly(fn, *args):
    """``fn(*args)`` with numpy's overflow and invalid-value warnings off,
    as the layer's statistics and the backward's sums run.  A decorated
    function is safe to enter from many threads at once and costs about
    half of a fresh ``np.errstate`` block, which at the toy's per-call
    scale is worth the indirection."""
    return fn(*args)


def _mean(sums, axes, m: int, out) -> np.ndarray:
    """The sum of per-(n, c) ``sums`` over ``axes``, divided by the count
    ``m``, written to ``out``.  A sum over the row axis alone is the row
    sum itself."""
    if len(axes) == 1:
        return np.divide(sums, m, out=out)
    total = np.add.reduce(sums, axis=axes, keepdims=True, out=out)
    total /= m
    return total


def _samples(stat, lo, hi) -> np.ndarray:
    """Samples lo:hi of a per-sample statistic, or the whole of a batch one,
    whose N axis has length 1."""
    return stat if len(stat) == 1 else stat[lo:hi]


def _check_finite(what: str, tv, sums) -> bool:
    """Raise unless ``tv``, one block of a tensor in the grouped view, is
    finite.  A NaN or inf element makes the total of its per-(n, c) row
    ``sums`` non-finite, so ``tv`` itself is read, while still in cache,
    only when that total is not finite.  False means ``tv`` is finite but
    its sums overflow."""
    if math.isfinite(sums.sum()):
        return True
    if not np.isfinite(tv).all():
        raise InvalidInputError(f"{what} tensor must be finite")
    return False


def _counts(bases) -> list[int]:
    """The reference count of each of ``bases`` as this loop reads it."""
    counts = []
    for base in bases:
        counts.append(sys.getrefcount(base))
    return counts


def _idle_count() -> int | None:
    """The count ``_counts`` reads for a base that only its list holds,
    measured on a probe of the same shape.  None where the interpreter is
    not CPython, or where its count does not rise by one for each further
    holder (a reference, then a view) and fall back when they are gone:
    there no count tells an idle base from a held one."""
    if sys.implementation.name != "cpython":
        return None
    probe = [np.empty(1)]
    [idle] = _counts(probe)
    held = probe[0]
    [once] = _counts(probe)
    view = held[::2]
    [twice] = _counts(probe)
    del held, view
    [after] = _counts(probe)
    return idle if (once, twice, after) == (idle + 1, idle + 2, idle) else None


# What ``_counts`` reads for a base no output references; None turns
# recycling off.
IDLE_COUNT = _idle_count()


def _full(view) -> np.ndarray:
    """A float64 array of shape ``view`` for a full-size output (y or
    grad_x), its contents undefined.  At most ``RECYCLE_BYTES``, or where
    ``IDLE_COUNT`` is None, it is ``np.empty``.  A larger one is a view of
    a kept base of its size that nothing else references; else idle bases
    of other sizes are dropped and it is a view of a new base, kept while
    fewer than two are: in a chain of same-shape layers each output is
    alive while the next is computed.  Every numpy view, however derived,
    holds its memory's owner in ``.base``, so a base is idle when its count
    is ``IDLE_COUNT``.  An output and its memory thus stay the caller's for
    as long as anything references them.  Bases are taken under one lock,
    so two threads never get the same one."""
    size = math.prod(view)
    if 8 * size <= RECYCLE_BYTES or IDLE_COUNT is None:
        return np.empty(view)
    lock, bases = _kept(os.getpid())
    with lock:
        idle = [count == IDLE_COUNT for count in _counts(bases)]
        for i, free in enumerate(idle):
            if free and bases[i].size == size:
                return bases[i].reshape(view)
        bases[:] = [base for base, free in zip(bases, idle) if not free]
        base = np.empty(size)
        if len(bases) < 2:
            bases.append(base)
        return base.reshape(view)


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
        check_integer("channels", channels, 1)
        check_integer("k", k, 2)
        check_real("z_init", z_init)
        gate = GateParams(z_mean=np.full(k, z_init), z_var=np.full(k, z_init))
        return cls(gate=gate, gamma=np.ones(channels), beta=np.zeros(channels))


def _check_params(params: SsnParams, k: int, c: int) -> None:
    """Every rule of a valid ``SsnParams`` with k normalizers and c channels.
    Callers reassign fields after construction, so each entry point runs it."""
    if params.mode not in (TRAIN, EVAL):
        raise InvalidInputError(f"mode must be {TRAIN!r} or {EVAL!r}, got {params.mode!r}")
    check_real("eps", params.eps, 0, strict=True)
    gate = params.gate
    shapes = (getattr(gate.z_mean, "shape", None), getattr(gate.z_var, "shape", None))
    if shapes != ((k,), (k,)):
        raise InvalidInputError(f"gate logits length must match |omega| = {k}, got "
                                f"z_mean {shapes[0]} and z_var {shapes[1]}")
    check_array("gate logits z_mean", gate.z_mean)
    check_array("gate logits z_var", gate.z_var)
    for name in ("gamma", "beta", "bn_running_mean", "bn_running_var"):
        value = getattr(params, name)
        field = f"running statistics: {name}" if name.startswith("bn") else name
        shape = getattr(value, "shape", None)
        if shape != (c,):
            like = "" if name == "gamma" else " like gamma"
            raise InvalidInputError(f"{field} must have shape ({c},){like}, got {shape}")
        value = check_array(field, value)
    # ``value`` holds the running variances, all finite.
    if c and min(value.tolist()) < 0:
        raise InvalidInputError("running variances must be >= 0, got bn_running_var "
                                f"with min {value.min():g}")


# A normalizer the forward took (a nonzero ratio in either gate): its index
# in omega, name, axes (``REDUCE_AXES``), the count each statistic sums, and
# its mean and variance with keepdims over those axes.  A variance taken
# from x is None where its gate's ratio is zero; eval-mode BN's moments are
# the running statistics.
LiveNormalizer = namedtuple("LiveNormalizer", "index name axes count mean var")


@dataclass
class SsnCache:
    """Forward intermediates for the backward pass, in the shapes it reads
    them.  ``view`` is the (N, G, C/G, H*W) shape that ``REDUCE_AXES``
    indexes, ``live`` the forward's one table of the normalizers it took,
    in omega order, and ``stats`` each one's (mean, variance) by name.
    ``mu`` and ``inv_std`` are the mixed moments per (n, c) and ``scale``
    the per-(n, c) scale the forward applied, ``gamma * inv_std``.
    ``p_res`` and ``pp_res`` are all the backward needs of the gates."""

    x: np.ndarray
    view: tuple[int, int, int, int]
    p_res: ProjectionResult
    pp_res: ProjectionResult
    live: list[LiveNormalizer]
    mu: np.ndarray
    inv_std: np.ndarray
    scale: np.ndarray
    mode: str

    @property
    def stats(self) -> dict:
        return {k.name: (k.mean, k.var) for k in self.live}


def ssn_forward(x, params: SsnParams, r: float, omega, gn_groups: int = 32):
    """Normalize ``x`` with gate-mixed statistics.

    Both gates are projected independently with the same radius.  One
    table (``LiveNormalizer``), which the cache hands to the backward,
    lists the normalizers with a nonzero ratio in either gate; only they
    have statistics, so a one-hot layer touches a single normalizer.

    Each pass over the tensor (``_map_samples``) is one fixed block
    function, run on a block of whole samples while it is in cache.  Each
    mean taken from ``x`` is a sum of the block's per-(n, c) row sums of
    ``x``.  Only train-mode BN's batch moments need every sample.  Where BN
    is live in train mode, ``row_moments`` first writes, per block, the row
    sums and a copy of ``x`` centered on its row means, with that copy's
    row sums of squares and, where a variance other than IN's is due, its
    row sums.  Between the passes every statistic is pooled from these per
    row: a variance about another mean adds each row's offset from it
    (Chan, Golub and LeVeque's pairwise update), so a large common offset
    costs no digits.  Elsewhere, in eval mode or with BN's ratio zero in
    both gates, one centered copy of ``x`` serves every variance: the chain
    of the means taken from ``x``, in omega order, re-centres it in place
    from each mean to the next (the first writes it from ``x``), summing
    its squares per row where a variance is due.  ``normalize`` takes the
    row sums and that chain where nothing was pooled, mixes every live
    normalizer's moments and applies them as one per-(n, c) scale and
    shift, ``y = x * a + b``: one multiply and one add, in place on the
    centered copy where there is one and from ``x`` otherwise.  So a forward
    is two passes with train-mode BN live in either gate and one otherwise.
    Each block checks its part of ``x`` by its row sums (``_check_finite``)
    before anything else, and a block whose ``x`` is rejected raises with
    no numpy warning.  The statistics ignore overflow and invalid values;
    the scale runs under the caller's error state, so where one pass covers
    several blocks, another block of a rejected ``x`` whose own finite
    values overflow may warn before the error.  The bits are the same for
    any block size or worker count.
    """
    x = check_array("activation tensor", x, finite=False)  # checked by blocks below
    if x.ndim != 4:
        raise InvalidInputError("activation tensor must have shape (N, C, H, W)")
    if x.size == 0:
        raise InvalidInputError("activation tensor must be non-empty")
    omega = validate_omega(omega)
    _check_params(params, len(omega), x.shape[1])
    n, c, h, w = x.shape
    groups = check_integer("gn_groups", gn_groups, 1) if "GN" in omega else 1
    if c % groups != 0:
        raise InvalidInputError(f"channels ({c}) not divisible by groups ({groups})")
    view = (n, groups, c // groups, h * w)  # the view that ``REDUCE_AXES`` indexes
    per_nc = view[:3] + (1,)
    p_res = sparsestmax(params.gate.z_mean, r)
    pp_res = sparsestmax(params.gate.z_var, r)
    # As Python floats, which index and multiply faster than numpy scalars.
    p, pp = p_res.p.tolist(), pp_res.p.tolist()

    # ``live`` is the table of live normalizers.  Each block writes its
    # samples of a per-sample statistic.  BN's reduce over N, so they are
    # batch statistics, with a length-1 N axis that every block reads whole.
    live = []
    for i, name in enumerate(omega):
        if p[i] == 0.0 and pp[i] == 0.0:
            continue
        axes = REDUCE_AXES[name]
        shape = tuple(1 if d in axes else size for d, size in enumerate(per_nc))
        if name == "BN" and params.mode == EVAL:
            mean_k = params.bn_running_mean.reshape(shape)
            var_k = params.bn_running_var.reshape(shape)
        else:
            mean_k = np.empty(shape)
            var_k = np.empty(shape) if pp[i] != 0.0 else None
        live.append(LiveNormalizer(i, name, axes, x.size // mean_k.size, mean_k, var_k))
    # Train-mode BN needs every sample, so its forward pools every statistic
    # from per-row moments between two passes; ``chain``, the statistics
    # ``normalize`` takes from x, is then empty.
    pooled = params.mode == TRAIN and any(k.name == "BN" for k in live)
    chain = [] if pooled else [k for k in live if k.name != "BN"]

    xv = x.reshape(view)
    hw = view[3]
    rows = np.empty(per_nc)  # per-(n, c) row sums of x
    sq = np.empty(per_nc)  # per-(n, c) sums of squares of the centered copy
    centre = np.empty(per_nc) if pooled else None  # per-(n, c) row means of x
    # per-(n, c) sums of the centered copy, due for any variance but IN's
    delta = np.empty(per_nc) if pooled and any(
        k.var is not None and k.name != "IN" for k in live) else None
    mu = np.zeros(per_nc)
    var = np.zeros(per_nc)
    inv_std = np.empty(per_nc)
    a = np.empty(per_nc)
    y = _full(view)
    gamma = params.gamma.reshape(per_nc[1:])
    beta = params.beta.reshape(per_nc[1:])
    # The mean the centered copy is taken about: the row means where the
    # statistics are pooled, else the last mean taken from x.
    shift = centre if pooled else chain[-1].mean if chain else None

    def row_sums(lo, hi):
        xb = xv[lo:hi]
        _check_finite("activation", xb,
                      np.add.reduce(xb, axis=3, keepdims=True, out=rows[lo:hi]))

    def row_moments(lo, hi):
        """Samples lo:hi of the row sums and row means of x, and of the row
        sums of squares (and of values, where ``delta`` is due) of the copy
        centered on the row means, which it writes to y."""
        row_sums(lo, hi)
        yb = np.subtract(xv[lo:hi], np.divide(rows[lo:hi], hw, out=centre[lo:hi]),
                         out=y[lo:hi])
        np.einsum("ngkh,ngkh->ngk", yb, yb, out=sq[lo:hi, ..., 0])
        if delta is not None:
            np.add.reduce(yb, axis=3, keepdims=True, out=delta[lo:hi])

    def pool():
        """Every live normalizer's statistics from the per-row moments.  A
        variance about a mean other than the row mean adds, per row, the
        offset d = centre - mean: sum((t + d)^2) = sum(t^2) + d * (2 * sum(t)
        + HW * d), where t is the centered copy, whose sum is not exactly 0."""
        _map_samples(row_moments, view)
        for _, name, axes, m, mean_k, var_k in live:
            _mean(rows, axes, m, mean_k)
            if var_k is None:
                continue
            if name == "IN":
                _mean(sq, axes, m, var_k)
            else:
                d = centre - mean_k
                _mean(sq + d * (2.0 * delta + hw * d), axes, m, var_k)

    def recentre(lo, hi):
        """Samples lo:hi of the statistics of ``chain``, whose means, in
        turn, re-centre the centered copy in place."""
        xb, yb, rb = xv[lo:hi], y[lo:hi], rows[lo:hi]
        for j, (_, _, axes, m, mean_k, var_k) in enumerate(chain):
            mean_b = _mean(rb, axes, m, mean_k[lo:hi])
            if j == 0:
                np.subtract(xb, mean_b, out=yb)
            else:
                yb -= mean_b - chain[j - 1].mean[lo:hi]
            if var_k is not None:
                sb = sq[lo:hi]
                np.einsum("ngkh,ngkh->ngk", yb, yb, out=sb[..., 0])
                _mean(sb, axes, m, var_k[lo:hi])

    def mixed_moments(lo, hi):
        """Samples lo:hi of every statistic not taken in an earlier pass,
        and of the mixed moments, which it returns."""
        if not pooled:
            row_sums(lo, hi)
            recentre(lo, hi)
        mu_b, var_b = mu[lo:hi], var[lo:hi]
        for i, _, _, _, mean_k, var_k in live:
            if p[i] != 0.0:
                mu_b += p[i] * _samples(mean_k, lo, hi)
            if pp[i] != 0.0:
                var_b += pp[i] * _samples(var_k, lo, hi)
        return mu_b, var_b

    def normalize(lo, hi):
        mu_b, var_b = _quietly(mixed_moments, lo, hi)
        # y = x * a + b with a = gamma / sqrt(var + eps) and b = beta - mu * a,
        # applied in place to the centered copy when there is one:
        # y = (x - shift) * a + (b + shift * a).
        s_b = np.add(var_b, params.eps, out=inv_std[lo:hi])
        np.sqrt(s_b, out=s_b)
        np.divide(1.0, s_b, out=s_b)
        a_b = np.multiply(gamma, s_b, out=a[lo:hi])
        src, off = (xv, mu_b) if shift is None else (y, mu_b - shift[lo:hi])
        out = np.multiply(src[lo:hi], a_b, out=y[lo:hi])
        out += beta - off * a_b

    if pooled:
        _quietly(pool)
    _map_samples(normalize, view)
    cache = SsnCache(x=x, view=view, p_res=p_res, pp_res=pp_res, live=live,
                     mu=mu, inv_std=inv_std, scale=a, mode=params.mode)
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

    The mean and variance terms of each normalizer in the forward's table
    (``cache.live``) reduce to per-(n, c) coefficients, so ``grad_x = x *
    coef + const + g * alpha`` takes the same two sweeps whatever their number.
    Like every full-tensor pass, each sweep walks blocks of whole samples
    (``_map_samples``), so the only full-size array written is ``grad_x``.
    Per-row sums do not depend on the blocks or the workers, so neither do
    the gradients.  The upstream tensor is checked by the forward's
    finiteness rule (``_check_finite``), block by block in sweep 1, with
    no numpy warning when it is rejected.  Gate gradients always flow
    through the projection's vector-Jacobian product, which gives zero-ratio
    normalizers exactly-zero logit gradients, and a one-hot gate an all-zero
    one; a non-finite gate gradient is rejected there.
    """
    if cache.mode != TRAIN:
        raise InvalidStateError("backward requires a train-mode cache")
    g = check_array("upstream tensor", upstream, finite=False)
    x, view = cache.x, cache.view
    if g.shape != x.shape:
        raise InvalidInputError("upstream tensor shape must match the input")
    xv, gv = x.reshape(view), g.reshape(view)
    p, pp = cache.p_res.p, cache.pp_res.p
    s, mu, a = cache.inv_std, cache.mu, cache.scale

    # Sweep 1: per-(n, c) sums of g and g * x, a block of g read once from
    # memory for both and checked by them.
    sums = np.empty((2,) + view[:3])

    def sweep_1(lo, hi):
        np.add.reduce(gv[lo:hi], axis=3, out=sums[0, lo:hi])
        np.einsum("ngkh,ngkh->ngk", gv[lo:hi], xv[lo:hi], out=sums[1, lo:hi])
        return _check_finite("upstream", gv[lo:hi], sums[:, lo:hi])
    # x is finite (the forward checked it), so a finite g whose sums of g
    # and g * x overflow is too large to give finite gradients.
    if not all(_quietly(_map_samples, sweep_1, view)):
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
    coef = np.zeros_like(mu)
    const = np.zeros_like(mu)
    g_p = np.zeros(len(p))
    g_pp = np.zeros(len(pp))
    for i, _, axes, m, mean_k, var_k in cache.live:
        if p[i] != 0.0:
            g_p[i] = float((g_mu * mean_k).sum())
            const += (p[i] / m) * g_mu.sum(axis=axes, keepdims=True)
        if pp[i] != 0.0:
            g_pp[i] = float((g_var * var_k).sum())
            t = (2.0 * pp[i] / m) * g_var.sum(axis=axes, keepdims=True)
            coef += t
            const -= t * mean_k

    # Sweep 2: grad_x, with g * alpha a temporary of one block.
    grad_x = _full(view)

    def sweep_2(lo, hi):
        out = np.multiply(xv[lo:hi], coef[lo:hi], out=grad_x[lo:hi])
        out += const[lo:hi]
        out += gv[lo:hi] * a[lo:hi]
    _map_samples(sweep_2, view)
    return SsnGrads(x=grad_x.reshape(x.shape), gamma=grad_gamma, beta=grad_beta,
                    z_mean=sparsestmax_vjp(cache.p_res, g_p),
                    z_var=sparsestmax_vjp(cache.pp_res, g_pp))


def update_running_stats(params: SsnParams, batch_mean, batch_var) -> SsnParams:
    """Exponential moving average update of the BN running statistics,
    weighting the batch moments by ``BN_MOMENTUM``; ``train`` does not call it.
    Batch moments that are not finite raise here, not at the next entry
    point that reads the running statistics."""
    batch_mean = check_array("batch_mean", batch_mean)
    batch_var = check_array("batch_var", batch_var)
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
    w = check_array("conv weight", conv_weight)
    if w.ndim != 4 or w.shape[0] != c:
        raise InvalidInputError(
            f"conv weight must be 4-D with {c} output channels, got shape {w.shape}")
    b = np.zeros(c) if conv_bias is None else check_array("conv bias", conv_bias)
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
    for name, value in (("n", n), ("c", c), ("h", h), ("w", w), ("reps", reps)):
        check_integer(name, value, 1)
    check_integer("seed", seed, 0)
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
