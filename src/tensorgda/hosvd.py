"""Higher-order SVD of a sample stack with energy-threshold truncation and
quality metrics.

The input stacks its samples on the last axis, ``sample_shape + (m,)``, as
everywhere in the package; a lone tensor ``t`` is the stack ``t[..., None]``.
The decomposition factors each data mode ``k < n`` into an orthonormal
basis ``V_k`` and never reduces the sample mode (the HOSVD stage of MPCA,
Lu, Plataniotis & Venetsanopoulos, IEEE TNN 2008): ``core = samples x_0
V_0^T ... x_{n-1} V_{n-1}^T``.  Per-mode ranks are either given explicitly
or chosen as the smallest count whose singular values retain a fraction
``theta`` of that mode's total singular-value mass.  The core is built
from the input on first read, so a caller that needs only the bases (the
``hopca`` trainer, ``compress``) never pays for it.

Every mode's left singular basis comes from one path: the triangle ``R``
of a QR factorization of the transposed unfolding (``unfolding = R.T @
Q.T``), then the SVD of the small ``R.T``, whose left singular vectors and
singular values are the unfolding's.  The QR step shrinks a wide unfolding
to ``I_k`` columns without forming the Gram matrix, so small singular
values keep their accuracy.  A transposed unfolding of two or more row
blocks is factored as TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
Comput. 2012): one QR per contiguous block, then one QR of the stacked
triangles and the leftover rows.  Its ``R`` is the one-shot triangle up to
the signs of its rows, which leave ``R.T``'s left singular vectors and
singular values unchanged, and it is as backward stable; each block's QR
runs in cache and copies only that block.  A shorter unfolding keeps the
one-shot QR.

Also houses the lossy-compression bookkeeping: PSNR against an 8-bit peak
and the storage fractions of vector PCA versus multilinear truncation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tensor
from .errors import ConfigurationError, DegenerateModeError, DimensionError, NumericInputError
# sym_eig is unused here but stays bound: perfbench/tracing.py wraps it by name
from .linalg import svd, sym_eig


@dataclass(frozen=True)
class HosvdResult:
    """Per-data-mode orthonormal factors of the stack ``source``, and its core.

    ``factors[k]`` has shape ``I_k x J_k``, one per data mode.
    ``mode_energy[k]`` is the retained fraction of mode ``k``'s singular-value
    mass.  ``source`` is the decomposed float64 stack, the caller's own array
    when it already was one.  ``core`` is ``source x_k factors[k].T`` over the
    data modes, a ``kept_ranks + (m,)`` stack built on first read.
    """

    factors: tuple
    kept_ranks: tuple
    mode_energy: tuple
    source: np.ndarray = field(repr=False)

    @cached_property
    def core(self) -> np.ndarray:
        return tensor.multi_mode_product(
            self.source, [(f.T, k) for k, f in enumerate(self.factors)]
        )


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


# fewest rows in one block of a blocked QR, which also takes at least
# 4 I_k: a block's factorization then stays in cache
_QR_BLOCK = 512


def _triangle(rows: np.ndarray) -> np.ndarray:
    """``R`` of ``qr(rows, mode="r")``: one call for fewer than two blocks of
    ``max(_QR_BLOCK, 4 * columns)`` rows, else one QR per block and one of
    the stacked triangles plus the leftover rows."""
    height = max(_QR_BLOCK, 4 * rows.shape[1])
    blocks = len(rows) // height
    if blocks < 2:
        return np.linalg.qr(rows, mode="r")
    stacked = [np.linalg.qr(rows[b * height:(b + 1) * height], mode="r") for b in range(blocks)]
    stacked.append(rows[blocks * height:])
    return np.linalg.qr(np.vstack(stacked), mode="r")


def _mode_basis(unfolding: np.ndarray, needed: int | None):
    """Left singular vectors and singular values of an ``I_k x n`` unfolding.

    The SVD of ``R.T`` from ``qr(unfolding.T)`` supplies ``min(I_k, n)``
    vectors.  When an explicit rank asks for more (only possible when
    ``n < I_k``), ``R`` gains zero rows up to ``needed``, so the SVD
    completes the basis with orthonormal directions of singular value zero.
    """
    r = _triangle(unfolding.T)
    if needed is not None and needed > r.shape[0]:
        r = np.vstack([r, np.zeros((needed - r.shape[0], r.shape[1]))])
    result = svd(r.T)
    return result.u, result.s


def hosvd(samples: np.ndarray, ranks=None, theta: float | None = None) -> HosvdResult:
    """Decompose the data modes of ``samples``, a ``sample_shape + (m,)``
    stack, into orthonormal factors (and a core stack, built when read).

    Exactly one of ``ranks`` (one rank per data mode, each in ``[1, I_k]``)
    and ``theta`` (global energy threshold) must be given.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim < 2:
        raise DimensionError(
            "samples must be a sample_shape + (m,) stack; a lone tensor t is t[..., None]")
    if (ranks is None) == (theta is None):
        raise DimensionError("specify exactly one of ranks/theta")
    shape = samples.shape[:-1]
    if ranks is not None:
        ranks = tuple(ranks)
        if len(ranks) != len(shape):
            raise ConfigurationError(f"expected {len(shape)} HOSVD ranks, got {len(ranks)}")
        for k, (r, extent) in enumerate(zip(ranks, shape)):
            if not (isinstance(r, numbers.Integral) and not isinstance(r, bool) and r >= 1):
                raise ConfigurationError(
                    f"HOSVD rank {r!r} of mode {k} must be an integer of at least 1")
            if r > extent:
                raise ConfigurationError(
                    f"HOSVD rank {r} exceeds the sample extent {extent} of mode {k}")

    factors = []
    kept = []
    energy = []
    for k in range(len(shape)):
        needed = None if ranks is None else int(ranks[k])
        basis, sigmas = _mode_basis(tensor.unfold(samples, k), needed)
        total = float(np.sum(sigmas))
        if total == 0.0:
            raise DegenerateModeError(f"mode {k} of the input is identically zero")
        if needed is None:
            needed = select_rank(sigmas, theta)
        factors.append(basis[:, :needed])
        kept.append(needed)
        energy.append(float(np.sum(sigmas[:needed])) / total)

    return HosvdResult(
        factors=tuple(factors),
        kept_ranks=tuple(kept),
        mode_energy=tuple(energy),
        source=samples,
    )


def reconstruct(result: HosvdResult) -> np.ndarray:
    """Each sample of ``result.source`` projected onto every kept basis,
    ``source x_k V_k V_k^T``, bit for bit as for that sample alone.  A square
    orthonormal basis projects to the identity and is skipped, so a
    full-rank reconstruction returns the source exactly."""
    return tensor._per_sample_products(
        result.source,
        [(f @ f.T, k) for k, f in enumerate(result.factors) if f.shape[0] != f.shape[1]],
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
    if not math.isfinite(mse):
        raise NumericInputError(f"mean squared error {mse} is not finite")
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse))


def hopca_compression_fraction(n_samples: int, extents, dims) -> float:
    """Compressed/uncompressed fraction of multilinear truncation for
    ``n_samples`` tensors of the given extents kept at ``dims`` per mode:
    the truncated cores plus one ``I_k x J_k`` basis per mode.  Vector PCA
    of length-``L`` samples with ``p`` components is the order-1 case,
    ``extents=(L,)`` and ``dims=(p,)``."""
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
