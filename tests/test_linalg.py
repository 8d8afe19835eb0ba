import re

import numpy as np
import pytest
import scipy.linalg

from tensorgda.errors import DimensionError, NumericInputError, SingularityError
from tensorgda.linalg import _fix_signs, ratio_trace_eig, svd, sym_eig

from oracles import principal_angles


def random_spd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank))
    return a @ a.T


def fix_signs_by_column(vectors, *coupled):
    """Oracle: the sign convention applied one column at a time."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0.0:
            vectors[:, j] = -col
            for other in coupled:
                other[:, j] = -other[:, j]


class TestFixSigns:
    @pytest.mark.parametrize("shape", [(55, 55), (9200, 56), (4, 7), (6, 1), (5, 0)])
    def test_same_bytes_as_the_column_loop(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        vectors = rng.standard_normal(shape)
        if shape[1] >= 3:
            # ties of magnitude: the lowest row decides the sign
            vectors[:2, 0] = np.array([-2.0, 2.0]) * np.abs(vectors[:, 0]).max()
            vectors[:2, 1] = np.array([3.0, -3.0]) * np.abs(vectors[:, 1]).max()
            vectors[:, 2] = 0.0
        coupled = [rng.standard_normal((3, shape[1])), rng.standard_normal((shape[1] + 2, shape[1]))]
        expect = [vectors.copy(), *(c.copy() for c in coupled)]
        fix_signs_by_column(*expect)
        _fix_signs(vectors, *coupled)
        for got, want in zip([vectors, *coupled], expect):
            assert got.tobytes() == want.tobytes()


class TestSvd:
    def test_identity(self):
        result = svd(np.eye(3))
        np.testing.assert_allclose(result.s, [1, 1, 1])

    def test_diagonal(self):
        result = svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(result.s, [3, 2])
        # signed permutations of the identity
        np.testing.assert_allclose(np.abs(result.u), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(result.v), np.eye(2), atol=1e-14)

    def test_reconstruction_and_gram_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        result = svd(a)
        recon = result.u @ np.diag(result.s) @ result.v.T
        np.testing.assert_allclose(recon, a, atol=1e-10 * np.linalg.norm(a))
        # singular values vs the square roots of eigenvalues of a.T @ a,
        # computed by an independent symmetric eigensolver
        gram_eigs = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(result.s, np.sqrt(np.clip(gram_eigs, 0, None)),
                                   rtol=1e-10)

    def test_orthonormality_and_order(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 4))
        result = svd(a)
        np.testing.assert_allclose(result.u.T @ result.u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(4), atol=1e-10)
        assert np.all(np.diff(result.s) <= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 4))
        result = svd(a)
        for j in range(result.u.shape[1]):
            col = result.u[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_determinism(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 5))
        first = svd(a)
        second = svd(a.copy())
        assert np.array_equal(first.u, second.u)
        assert np.array_equal(first.s, second.s)
        assert np.array_equal(first.v, second.v)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NumericInputError):
            svd(bad)


class TestSymEig:
    def test_diagonal(self):
        result = sym_eig(np.diag([5.0, 1.0]))
        np.testing.assert_allclose(result.values, [5, 1])

    def test_zero_matrix(self):
        result = sym_eig(np.zeros((3, 3)))
        np.testing.assert_allclose(result.values, [0, 0, 0])
        np.testing.assert_allclose(result.vectors, np.eye(3))

    def test_residual(self):
        rng = np.random.default_rng(4)
        s = random_spd(rng, 6)
        result = sym_eig(s)
        residual = np.linalg.norm(
            s @ result.vectors - result.vectors @ np.diag(result.values)
        )
        assert residual <= 1e-9 * np.linalg.norm(s)
        np.testing.assert_allclose(
            result.vectors.T @ result.vectors, np.eye(6), atol=1e-10
        )

    def test_symmetrizes_input(self):
        lopsided = np.array([[1.0, 2.0], [0.0, 1.0]])
        result = sym_eig(lopsided)
        np.testing.assert_allclose(result.values, [2.0, 0.0], atol=1e-12)


class TestRatioTraceEig:
    def test_whitened_diagonal(self):
        u = ratio_trace_eig(np.diag([4.0, 1.0]), np.eye(2), 1, ridge=0.0)
        np.testing.assert_allclose(u, [[1.0], [0.0]], atol=1e-12)

    def test_zero_between_scatter(self):
        u = ratio_trace_eig(np.zeros((3, 3)), np.eye(3), 2, ridge=0.0)
        np.testing.assert_allclose(u, np.eye(3)[:, :2], atol=1e-12)

    def test_generalized_residual_oracle(self):
        rng = np.random.default_rng(5)
        n, d = 5, 2
        s_w = random_spd(rng, n)
        s_b = random_spd(rng, n, rank=3)
        ridge = 1e-6
        u = ratio_trace_eig(s_b, s_w, d, ridge=ridge)
        reg = s_w + ridge * np.trace(s_w) / n * np.eye(n)
        # each returned column solves s_b @ u = lam * reg @ u
        scale = np.linalg.norm(s_b) + np.linalg.norm(s_w)
        for j in range(d):
            col = u[:, j]
            lam = (col @ s_b @ col) / (col @ reg @ col)
            residual = np.linalg.norm(s_b @ col - lam * (reg @ col))
            assert residual <= 1e-8 * scale
        # eigenvalues match an independent generalized solver
        oracle_vals = scipy.linalg.eigh(s_b, reg, eigvals_only=True)[::-1]
        mine = [
            (u[:, j] @ s_b @ u[:, j]) / (u[:, j] @ reg @ u[:, j]) for j in range(d)
        ]
        np.testing.assert_allclose(mine, oracle_vals[:d], rtol=1e-8)

    def test_subspace_matches_independent_solver(self):
        rng = np.random.default_rng(6)
        n, d = 6, 3
        s_w = random_spd(rng, n)
        s_b = random_spd(rng, n)
        ridge = 1e-6
        u = ratio_trace_eig(s_b, s_w, d, ridge=ridge)
        reg = s_w + ridge * np.trace(s_w) / n * np.eye(n)
        _, oracle_vecs = scipy.linalg.eigh(s_b, reg)
        oracle = oracle_vecs[:, ::-1][:, :d]
        assert principal_angles(u, oracle).max() <= 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        n, d = 5, 2
        s_w = random_spd(rng, n)
        s_b = random_spd(rng, n)
        u1 = ratio_trace_eig(s_b, s_w, d)
        u2 = ratio_trace_eig(3.7 * s_b, 3.7 * s_w, d)
        assert principal_angles(u1, u2).max() <= 1e-8

    def test_identity_within_scatter_reduces_to_plain_eig(self):
        rng = np.random.default_rng(8)
        s_b = random_spd(rng, 5)
        u = ratio_trace_eig(s_b, np.eye(5), 3, ridge=0.0)
        top = sym_eig(s_b).vectors[:, :3]
        assert principal_angles(u, top).max() <= 1e-9

    def test_singular_without_ridge(self):
        s_w = np.zeros((3, 3))
        s_b = np.eye(3)
        with pytest.raises(SingularityError):
            ratio_trace_eig(s_b, s_w, 1, ridge=0.0)

    @pytest.mark.parametrize("s_w,ridge", [
        # ridge * tr(S_w) / n overflows, and inf * I puts NaN off the diagonal
        (np.eye(3), 1e308),
        # the shift is finite, but adding it overflows the largest diagonal entry
        (np.diag([1.5e308, 1.0, 1.0]), 1.0),
    ])
    def test_overflowing_ridge_is_singular_naming_it(self, s_w, ridge):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SingularityError, match=re.escape(f"ridge {ridge!r} ")
        ):
            ratio_trace_eig(np.eye(3), s_w, 1, ridge=ridge)

    def test_rank_deficient_with_ridge_succeeds(self):
        rng = np.random.default_rng(9)
        s_w = random_spd(rng, 5, rank=2)  # singular
        s_b = random_spd(rng, 5)
        u = ratio_trace_eig(s_b, s_w, 2, ridge=1e-6)
        assert u.shape == (5, 2)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), [1, 1], rtol=1e-12)

    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            ratio_trace_eig(np.eye(3), np.eye(2), 1)
        with pytest.raises(DimensionError):
            ratio_trace_eig(np.eye(3), np.eye(3), 4)


class TestPrincipalAngles:
    def test_same_subspace(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 3))
        mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert principal_angles(a, a @ mix).max() <= 1e-10

    def test_orthogonal_subspaces(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        assert principal_angles(a, b).min() >= np.pi / 2 - 1e-12
