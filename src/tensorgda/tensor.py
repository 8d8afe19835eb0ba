"""Dense N-way tensor algebra: unfolding and k-mode products.

A tensor is a ``numpy.ndarray`` of ``float64`` scalars.  The linearization
contract used throughout the package is generalized column-major: the first
index varies fastest, the last slowest, i.e. the element at multi-index
``(i_0, ..., i_{N-1})`` sits at linear offset ``sum_k i_k * prod_{m<k} I_m``
of ``t.ravel(order="F")``.  Modes are zero-based axes, ``0 <= mode < t.ndim``.

Unfolding follows the convention in which row ``mode`` is paired with columns
that enumerate the remaining modes in increasing order, lower modes varying
fastest.  Under this convention the flattened form of a multi-mode product is

    unfold(Y, k) = A_k @ unfold(X, k) @ kron(A_{N-1}, ..., A_{k+1}, A_{k-1}, ..., A_0).T

which is the identity the scatters rely on.  :func:`mode_product` computes it
in place, as one batched GEMM on a C-contiguous ``(lead, I_k, rest)`` view.

Elementwise arithmetic, norms, means and Kronecker products are plain numpy;
no wrappers are provided.  All functions are pure and never mutate inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, InvalidModeError


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise InvalidModeError(
            f"mode {mode} invalid for an order-{t.ndim} tensor"
        )


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode``.

    Returns the ``I_mode x prod(other extents)`` matrix whose column ``j``
    enumerates the remaining indices in increasing mode order with lower
    modes varying fastest.
    """
    t = np.asarray(t, dtype=np.float64)
    _check_mode(t, mode)
    columns = math.prod(t.shape[:mode] + t.shape[mode + 1:])
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], columns), order="F")


def mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """k-mode product ``t x_mode u``: contract ``u`` (J x I_mode) with the
    ``mode`` axis of ``t``, replacing extent ``I_mode`` by ``J``; C-contiguous."""
    t = np.asarray(t, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_mode(t, mode)
    if u.ndim != 2 or u.shape[1] != t.shape[mode]:
        raise DimensionError(
            f"matrix {u.shape} cannot multiply mode {mode} of extent {t.shape[mode]}"
        )
    lead, rest = t.shape[:mode], t.shape[mode + 1:]
    blocks = np.ascontiguousarray(t).reshape(math.prod(lead), t.shape[mode], math.prod(rest))
    return np.matmul(u, blocks).reshape(lead + (len(u),) + rest)


def multi_mode_product(t: np.ndarray, factors) -> np.ndarray:
    """Apply several mode products, at most one per mode.

    ``factors`` is an iterable of ``(matrix, mode)`` pairs.  Products along
    distinct modes commute, so the application order is immaterial.
    """
    t = np.asarray(t, dtype=np.float64)
    seen = set()
    for u, mode in factors:
        if mode in seen:
            raise DimensionError(f"duplicate factor for mode {mode}")
        seen.add(mode)
        t = mode_product(t, u, mode)
    return t


def _per_sample_products(stack: np.ndarray, factors) -> np.ndarray:
    """:func:`multi_mode_product` of each sample of ``stack`` (samples on the
    last axis), to rounding, and bit for bit as it is for that sample alone as
    a C-contiguous one-sample stack: one BLAS call per sample and mode, as one
    GEMM over the whole stack rounds differently as its width changes."""
    stack = np.asarray(stack, dtype=np.float64)
    n = stack.ndim  # axis 0 of z is the sample, axis 1 + k is mode k
    z = np.ascontiguousarray(stack.transpose([n - 1, *range(n - 1)]))
    for u, mode in factors:
        axis = mode + 1
        others = [a for a in range(n - 1, 0, -1) if a != axis]  # other modes, last first
        # each sample's transposed unfolding, viewed or copied (the layout
        # picks the BLAS kernel): C over reversed modes is its column order
        rows = z.transpose([0, *others, axis]).reshape(len(z), -1, z.shape[axis])
        product = np.matmul(u, rows.swapaxes(1, 2)).reshape(
            [len(z), len(u)] + [z.shape[a] for a in others])
        # product's axes are z's axes [0, axis, *others]: view them back in order
        order = [0, axis, *others]
        z = product.transpose(sorted(range(n), key=order.__getitem__))
    return z.transpose([*range(1, n), 0])
