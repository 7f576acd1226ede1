"""Reference implementations that only the tests use: a direct
convolution, the closed-form sparsemax Jacobian and a simplex-membership
check."""
import numpy as np

from ssnorm.errors import InvalidInputError
from ssnorm.simplex import as_logits, sparsemax


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
