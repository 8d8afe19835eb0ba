"""Reference computations that tests compare the package against, and the
sample sets they build."""

import numpy as np

from tensorgda.training import LabeledTensorSet


def fold(m: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of ``tensor.unfold``: the tensor of ``shape`` whose
    mode-``mode`` unfolding is ``m``."""
    rest = [s for i, s in enumerate(shape) if i != mode]
    return np.moveaxis(np.reshape(m, [shape[mode]] + rest, order="F"), 0, mode)


def stacked_set(samples, labels, subjects=None) -> LabeledTensorSet:
    """A set of the same-shape tensors ``samples``, stacked sample-major as
    the package's builders stack them: each sample one contiguous block."""
    stack = np.stack([np.asarray(s, dtype=np.float64) for s in samples])
    return LabeledTensorSet(np.moveaxis(stack, 0, -1), labels, subjects)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical angles (radians, ascending) between the column spans of
    ``a`` and ``b``.

    Both inputs are orthonormalized first, so arbitrary bases are accepted.
    Small angles are recovered through the sine of the residual projection
    rather than ``arccos``, which loses half the digits near zero.
    """
    qa, _ = np.linalg.qr(np.asarray(a, dtype=np.float64))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=np.float64))
    overlap = qa.T @ qb
    cosines = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)
    sines = np.clip(np.linalg.svd(qb - qa @ overlap, compute_uv=False), 0.0, 1.0)
    k = min(cosines.size, sines.size)
    cosines = cosines[:k]  # descending: ascending angles
    sines = np.sort(sines)[:k]  # ascending: ascending angles
    return np.where(
        cosines**2 >= 0.5, np.arcsin(sines), np.arccos(cosines)
    )
