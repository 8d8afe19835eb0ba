"""Dense N-way tensor algebra: unfolding, folding and k-mode products.

A tensor is a ``numpy.ndarray`` of ``float64`` scalars.  The linearization
contract used throughout the package is generalized column-major: the first
index varies fastest, the last slowest, i.e. the element at multi-index
``(i_0, ..., i_{N-1})`` sits at linear offset ``sum_k i_k * prod_{m<k} I_m``
of ``t.ravel(order="F")``.  Modes are zero-based axes, ``0 <= mode < t.ndim``.

Unfolding follows the convention in which row ``mode`` is paired with columns
that enumerate the remaining modes in increasing order, lower modes varying
fastest.  Under this convention the flattened form of a multi-mode product is

    unfold(Y, k) = A_k @ unfold(X, k) @ kron(A_{N-1}, ..., A_{k+1}, A_{k-1}, ..., A_0).T

which is the identity every downstream scatter computation relies on.

Elementwise arithmetic, norms, means and Kronecker products are plain numpy;
no wrappers are provided.  All functions are pure and never mutate inputs.
"""

from __future__ import annotations

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
    return np.reshape(
        np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F"
    )


def fold(m: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from its
    mode-``mode`` unfolding."""
    m = np.asarray(m, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise InvalidModeError(f"mode {mode} invalid for shape {shape}")
    rest = [s for i, s in enumerate(shape) if i != mode]
    if m.ndim != 2 or m.shape[0] != shape[mode] or m.shape[1] != int(np.prod(rest)):
        raise DimensionError(
            f"matrix of shape {m.shape} is not a mode-{mode} unfolding of {shape}"
        )
    moved = np.reshape(m, [shape[mode]] + rest, order="F")
    return np.moveaxis(moved, 0, mode)


def mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """k-mode product ``t x_mode u``: contract ``u`` (J x I_mode) with the
    ``mode`` axis of ``t``, replacing extent ``I_mode`` by ``J``."""
    t = np.asarray(t, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_mode(t, mode)
    if u.ndim != 2 or u.shape[1] != t.shape[mode]:
        raise DimensionError(
            f"matrix {u.shape} cannot multiply mode {mode} of extent {t.shape[mode]}"
        )
    new_shape = list(t.shape)
    new_shape[mode] = u.shape[0]
    return fold(u @ unfold(t, mode), mode, new_shape)


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
    last axis), bit for bit as it is for that sample alone and C-contiguous:
    one BLAS call per sample and mode, as one GEMM over the whole stack
    rounds differently as its width changes."""
    z = np.ascontiguousarray(np.moveaxis(np.asarray(stack, dtype=np.float64), -1, 0))
    for u, mode in factors:
        moved = np.moveaxis(z, mode + 1, 1)  # (sample, mode, other modes)
        others = list(range(moved.ndim - 1, 1, -1))  # other modes, last first
        # each sample's transposed unfolding, viewed or copied as unfold does
        # (the layout picks the BLAS kernel): C over reversed modes is its order
        rows = moved.transpose([0, *others, 1]).reshape(len(z), -1, moved.shape[1])
        product = np.matmul(u, rows.swapaxes(1, 2)).reshape((len(z), len(u)) + moved.shape[:1:-1])
        z = np.moveaxis(product.transpose([0, 1, *others]), 1, mode + 1)
    return np.moveaxis(z, 0, -1)
