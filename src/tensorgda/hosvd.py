"""Higher-order SVD with energy-threshold truncation and quality metrics.

The decomposition factors a tensor into per-mode orthonormal bases plus a
core tensor: ``t ~ core x_0 V_0 x_1 V_1 ...``.  Per-mode ranks are either
given explicitly or chosen as the smallest count whose singular values
retain a fraction ``theta`` of that mode's total singular-value mass.

Every mode's left singular basis comes from one path: the triangle ``R``
of a QR factorization of the transposed unfolding (``unfolding = R.T @
Q.T``), then the SVD of the small ``R.T``, whose left singular vectors and
singular values are the unfolding's.  The QR step shrinks a wide unfolding
to ``I_k`` columns without forming the Gram matrix, so small singular
values keep their accuracy.

Also houses the lossy-compression bookkeeping: PSNR against an 8-bit peak
and the storage fractions of vector PCA versus multilinear truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import DegenerateModeError, DimensionError
# sym_eig is unused here but stays bound: perfbench/tracing.py wraps it by name
from .linalg import svd, sym_eig


@dataclass(frozen=True)
class HosvdResult:
    """Per-mode orthonormal factors plus the core tensor.

    ``factors[k]`` has shape ``I_k x J_k``; exempt modes carry the identity.
    ``mode_energy[k]`` is the retained fraction of mode ``k``'s singular-value
    mass (1.0 for exempt modes).
    """

    factors: tuple
    core: np.ndarray
    kept_ranks: tuple
    mode_energy: tuple
    input_shape: tuple


def select_rank(singular_values, theta: float) -> int:
    """Smallest ``d`` whose leading singular values hold a ``theta`` fraction
    of the total mass ``sum(s_i)``."""
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        raise DimensionError("empty singular value list")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise DimensionError("singular values must be nonnegative and nonincreasing")
    if not 0.0 < theta <= 1.0:
        raise DimensionError(f"theta must lie in (0, 1], got {theta}")
    total = float(np.sum(s))
    if total == 0.0:
        raise DegenerateModeError("all singular values are zero")
    cumulative = np.cumsum(s)
    return int(np.searchsorted(cumulative / total, theta, side="left")) + 1


def _mode_basis(unfolding: np.ndarray, needed: int | None):
    """Left singular vectors and singular values of an ``I_k x n`` unfolding.

    The SVD of ``R.T`` from ``qr(unfolding.T)`` supplies ``min(I_k, n)``
    vectors.  When an explicit rank asks for more (only possible when
    ``n < I_k``), ``R`` gains zero rows up to ``needed``, so the SVD
    completes the basis with orthonormal directions of singular value zero.
    """
    r = np.linalg.qr(unfolding.T, mode="r")
    if needed is not None and needed > r.shape[0]:
        r = np.vstack([r, np.zeros((needed - r.shape[0], r.shape[1]))])
    result = svd(r.T)
    return result.u, result.s


def hosvd(
    t: np.ndarray,
    ranks=None,
    theta: float | None = None,
    exempt_modes=(),
) -> HosvdResult:
    """Decompose ``t`` into per-mode orthonormal factors and a core tensor.

    Exactly one of ``ranks`` (per-mode rank list; entries for exempt modes
    are ignored) and ``theta`` (global energy threshold) must be given.
    Modes in ``exempt_modes`` receive identity factors and keep their full
    extent; the sample mode of a stacked training set is handled this way.
    """
    t = np.asarray(t, dtype=np.float64)
    if (ranks is None) == (theta is None):
        raise DimensionError("specify exactly one of ranks/theta")
    exempt = set(exempt_modes)
    for mode in exempt:
        if not 0 <= mode < t.ndim:
            raise DimensionError(f"exempt mode {mode} invalid for order {t.ndim}")
    if ranks is not None:
        ranks = list(ranks)
        if len(ranks) != t.ndim:
            raise DimensionError(
                f"expected {t.ndim} ranks, got {len(ranks)}"
            )
        for k, r in enumerate(ranks):
            if k not in exempt and not 1 <= r <= t.shape[k]:
                raise DimensionError(
                    f"rank {r} out of range for mode {k} of extent {t.shape[k]}"
                )

    factors = []
    kept = []
    energy = []
    for k in range(t.ndim):
        if k in exempt:
            factors.append(np.eye(t.shape[k]))
            kept.append(t.shape[k])
            energy.append(1.0)
            continue
        needed = None if ranks is None else int(ranks[k])
        basis, sigmas = _mode_basis(tensor.unfold(t, k), needed)
        if needed is None:
            needed = select_rank(sigmas, theta)
        total = float(np.sum(sigmas))
        if total == 0.0:
            raise DegenerateModeError(f"mode {k} of the input is identically zero")
        factors.append(basis[:, :needed])
        kept.append(needed)
        energy.append(float(np.sum(sigmas[:needed])) / total)

    core = tensor.multi_mode_product(
        t, [(factors[k].T, k) for k in range(t.ndim) if k not in exempt]
    )
    return HosvdResult(
        factors=tuple(factors),
        core=core,
        kept_ranks=tuple(kept),
        mode_energy=tuple(energy),
        input_shape=t.shape,
    )


def reconstruct(result: HosvdResult) -> np.ndarray:
    """Expand a decomposition back to the original space."""
    if len(result.factors) != result.core.ndim:
        raise DimensionError("factor count does not match core order")
    for k, f in enumerate(result.factors):
        if f.shape[1] != result.core.shape[k]:
            raise DimensionError(
                f"factor {k} of shape {f.shape} does not fit core extent "
                f"{result.core.shape[k]}"
            )
    return tensor.multi_mode_product(
        result.core, [(f, k) for k, f in enumerate(result.factors)]
    )


def psnr(original: np.ndarray, degraded: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against the 8-bit peak 255.

    ``20 * log10(255 / rmse)`` where the mean squared error runs over all
    entries; returns ``math.inf`` when the inputs are identical.
    """
    original = np.asarray(original, dtype=np.float64)
    degraded = np.asarray(degraded, dtype=np.float64)
    if original.shape != degraded.shape:
        raise DimensionError(
            f"shape mismatch: {original.shape} vs {degraded.shape}"
        )
    mse = float(np.mean((degraded - original) ** 2))
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse))


def hopca_compression_fraction(n_samples: int, extents, dims) -> float:
    """Compressed/uncompressed fraction of multilinear truncation for
    ``n_samples`` tensors of the given extents kept at ``dims`` per mode:
    the truncated cores plus one ``I_k x J_k`` basis per mode."""
    extents = tuple(int(e) for e in extents)
    dims = tuple(int(d) for d in dims)
    if len(extents) != len(dims):
        raise DimensionError("extents and dims must have equal length")
    if n_samples <= 0 or min(extents) <= 0 or min(dims) <= 0:
        raise DimensionError("all counts must be positive")
    compressed = n_samples * int(np.prod(dims)) + sum(
        e * d for e, d in zip(extents, dims)
    )
    return compressed / (n_samples * int(np.prod(extents)))


def pca_compression_fraction(n_samples: int, vector_length: int, p: int) -> float:
    """Compressed/uncompressed fraction of vector PCA with ``p`` components:
    the ``p`` coefficients per sample plus the ``p`` basis vectors."""
    if n_samples <= 0 or vector_length <= 0 or p <= 0:
        raise DimensionError("all counts must be positive")
    return (n_samples * p + vector_length * p) / (n_samples * vector_length)
