"""Dense linear-algebra kernels with deterministic conventions.

Thin wrappers over LAPACK (via ``numpy.linalg``) that pin down everything
LAPACK leaves free: ordering is nonincreasing, eigenvalue ties are broken by
lowest index, and every returned vector is signed so that its entry of
largest absolute value is nonnegative (ties by lowest index).  Identical
inputs therefore produce identical outputs.

``ratio_trace_eig`` solves the regularized discriminant subproblem: the top
eigenvectors of ``inv(S_w + ridge*tr(S_w)/n * I) @ S_b``, computed through a
symmetric whitening reduction so only Cholesky and symmetric eigensolves are
ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NumericInputError,
    SingularityError,
)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(s) @ v.T`` with deterministic signs."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Symmetric eigendecomposition, eigenvalues sorted nonincreasing."""

    values: np.ndarray
    vectors: np.ndarray


def _require_finite(a: np.ndarray, name: str, error=NumericInputError) -> None:
    if not np.all(np.isfinite(a)):
        raise error(f"{name} contains non-finite entries")


def _fix_signs(vectors: np.ndarray, *coupled: np.ndarray) -> None:
    """Flip columns, in place, so each column's largest-magnitude entry is
    nonnegative (ties broken by lowest row index).  Matching columns of the
    ``coupled`` matrices are flipped alongside, each column times 1.0 or -1.0."""
    pivots = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[pivots, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    for matrix in (vectors, *coupled):
        matrix *= signs


def svd(a: np.ndarray) -> SvdResult:
    """Thin SVD with ``min(rows, cols)`` triplets and fixed signs."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"svd expects a matrix, got shape {a.shape}")
    _require_finite(a, "svd input")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(vh.T)
    _fix_signs(u, v)
    return SvdResult(u=u, s=s, v=v)


def sym_eig(s: np.ndarray) -> EigResult:
    """Eigendecomposition of ``(s + s.T) / 2``, sorted nonincreasing."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"sym_eig expects a square matrix, got {s.shape}")
    _require_finite(s, "sym_eig input")
    sym = (s + s.T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; stable descending sort keeps ties in
    # their original (lowest-index-first) positions.
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = np.ascontiguousarray(vecs[:, order])
    _fix_signs(vecs)
    return EigResult(values=vals, vectors=vecs)


def ratio_trace_eig(
    s_b: np.ndarray, s_w: np.ndarray, d: int, ridge: float = 1e-6
) -> np.ndarray:
    """Top-``d`` eigenvectors of the regularized ratio problem.

    Solves ``inv(S) @ s_b`` for ``S = s_w + ridge * tr(s_w)/n * I`` by
    whitening: Cholesky ``S = L @ L.T``, symmetric eigendecomposition of
    ``inv(L) @ s_b @ inv(L).T``, back-transformation, and column
    normalization to unit Euclidean length.  Returns an ``n x d`` matrix;
    columns are ordered by eigenvalue (ties by lowest index) and carry the
    package sign convention.  The columns are generalized eigenvectors and
    not mutually orthogonal in general.
    """
    s_b = np.asarray(s_b, dtype=np.float64)
    s_w = np.asarray(s_w, dtype=np.float64)
    if s_b.ndim != 2 or s_b.shape[0] != s_b.shape[1]:
        raise DimensionError(f"s_b must be square, got {s_b.shape}")
    if s_w.shape != s_b.shape:
        raise DimensionError(f"s_w shape {s_w.shape} != s_b shape {s_b.shape}")
    n = s_b.shape[0]
    if not 1 <= d <= n:
        raise DimensionError(f"requested {d} eigenvectors from a {n}x{n} problem")
    if ridge < 0:
        raise DimensionError("ridge must be nonnegative")
    _require_finite(s_b, "s_b")
    _require_finite(s_w, "s_w")

    s_w_sym = (s_w + s_w.T) / 2.0
    s_b_sym = (s_b + s_b.T) / 2.0
    # relative ridge; an identically zero within-class scatter would leave
    # it zero, so fall back to the between-class trace as the scale
    scale = np.trace(s_w_sym)
    if scale == 0.0:
        scale = np.trace(s_b_sym)
    reg = s_w_sym + (ridge * scale / n) * np.eye(n)
    # a ridge that overflows puts inf on the diagonal and NaN beside it, and
    # Cholesky returns a non-finite factor for that instead of failing
    ridged = f"the within-class scatter under ridge {ridge!r}"
    _require_finite(reg, ridged, SingularityError)
    try:
        chol = np.linalg.cholesky(reg)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "regularized within-class scatter is not positive definite; "
            "increase the ridge"
        ) from exc
    _require_finite(chol, f"the Cholesky factor of {ridged}", SingularityError)

    # whiten: C = inv(L) @ s_b @ inv(L).T, kept exactly symmetric
    half = np.linalg.solve(chol, s_b_sym)
    whitened = np.linalg.solve(chol, half.T).T
    eig = sym_eig(whitened)
    back = np.linalg.solve(chol.T, eig.vectors[:, :d])
    back /= np.linalg.norm(back, axis=0, keepdims=True)
    _fix_signs(back)
    return back

