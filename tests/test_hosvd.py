import math

import numpy as np
import pytest

from tensorgda import tensor
from tensorgda.errors import DegenerateModeError, DimensionError
from tensorgda.hosvd import (
    hopca_compression_fraction,
    hosvd,
    pca_compression_fraction,
    psnr,
    reconstruct,
    select_rank,
)
from tensorgda.linalg import principal_angles


class TestSelectRank:
    def test_forced_threshold(self):
        assert select_rank([4, 3, 2, 1], 0.7) == 2  # fractions 0.4, 0.7, ...

    def test_full_energy_gives_nonzero_count(self):
        assert select_rank([2, 1, 0, 0], 1.0) == 2
        assert select_rank([5, 4, 3], 1.0) == 3

    def test_geometric_sequence_against_accumulator(self):
        s = [0.5**i for i in range(10)]
        total = sum(s)
        running = 0.0
        expected = None
        for i, v in enumerate(s):
            running += v
            if running / total >= 0.9:
                expected = i + 1
                break
        assert select_rank(s, 0.9) == expected

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateModeError):
            select_rank([0.0, 0.0], 0.5)

    def test_ordering_enforced(self):
        with pytest.raises(DimensionError):
            select_rank([1.0, 2.0], 0.5)

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(0)
        s = np.sort(rng.random(8))[::-1]
        ds = [select_rank(s, th) for th in (0.5, 0.7, 0.9, 0.98, 1.0)]
        assert all(a <= b for a, b in zip(ds, ds[1:]))


class TestHosvd:
    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((4, 3, 5))
        result = hosvd(t, ranks=t.shape)
        np.testing.assert_allclose(
            reconstruct(result), t, atol=1e-8 * np.linalg.norm(t.ravel())
        )

    def test_rank_one_tensor(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.random(4), rng.random(3), rng.random(5)
        t = np.einsum("i,j,k->ijk", a, b, c)
        result = hosvd(t, ranks=(1, 1, 1))
        np.testing.assert_allclose(
            reconstruct(result), t, atol=1e-10 * np.linalg.norm(t.ravel())
        )

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((6, 5, 4))
        result = hosvd(t, theta=0.9)
        for f in result.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)

    def test_core_matches_transposed_projection(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((4, 4, 3))
        result = hosvd(t, ranks=(2, 3, 2))
        expect = tensor.multi_mode_product(
            t, [(result.factors[k].T, k) for k in range(3)]
        )
        np.testing.assert_allclose(
            result.core, expect, atol=1e-10 * np.linalg.norm(t.ravel())
        )

    def test_truncation_against_gram_eigen_oracle(self):
        """Same truncation built from eigenvectors of the unfolding Gram
        matrices must reproduce the reconstruction error."""
        rng = np.random.default_rng(5)
        t = rng.standard_normal((6, 5, 4))
        ranks = (3, 3, 2)
        mine = np.linalg.norm((reconstruct(hosvd(t, ranks=ranks)) - t).ravel())

        recon = t
        factors = []
        for k in range(3):
            flat = tensor.unfold(t, k)
            vals, vecs = np.linalg.eigh(flat @ flat.T)
            factors.append(vecs[:, ::-1][:, : ranks[k]])
        for k, f in enumerate(factors):
            recon = tensor.mode_product(recon, f @ f.T, k)
        oracle = np.linalg.norm((recon - t).ravel())
        assert abs(mine - oracle) <= 1e-10 * np.linalg.norm(t.ravel())

    def test_truncated_energy_bound(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((6, 5, 4))
        ranks = (3, 3, 2)
        err_sq = np.linalg.norm((reconstruct(hosvd(t, ranks=ranks)) - t).ravel()) ** 2
        bound = 0.0
        for k in range(3):
            sigmas = np.linalg.svd(tensor.unfold(t, k), compute_uv=False)
            bound += float(np.sum(sigmas[ranks[k] :] ** 2))
        assert err_sq <= bound * (1 + 1e-12)

    def test_theta_monotonicity(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((6, 5, 4))
        previous_dims = None
        previous_err = None
        for theta in (0.5, 0.7, 0.9, 0.98, 1.0):
            result = hosvd(t, theta=theta)
            err = np.linalg.norm((reconstruct(result) - t).ravel())
            if previous_dims is not None:
                assert all(
                    a <= b for a, b in zip(previous_dims, result.kept_ranks)
                )
                assert err <= previous_err + 1e-12
            assert all(e >= theta for e in result.mode_energy)
            previous_dims = result.kept_ranks
            previous_err = err

    def test_projection_form_equivalence(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((5, 4, 3))
        result = hosvd(t, ranks=(3, 2, 2))
        via_projection = tensor.multi_mode_product(
            t, [(f @ f.T, k) for k, f in enumerate(result.factors)]
        )
        np.testing.assert_allclose(
            reconstruct(result),
            via_projection,
            atol=1e-9 * np.linalg.norm(t.ravel()),
        )

    def test_order2_matches_two_sided_pca_oracle(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((7, 6))
        result = hosvd(t, ranks=(3, 3))
        row_eigs = np.linalg.eigh(t @ t.T)[1][:, ::-1][:, :3]
        col_eigs = np.linalg.eigh(t.T @ t)[1][:, ::-1][:, :3]
        assert principal_angles(result.factors[0], row_eigs).max() <= 1e-8
        assert principal_angles(result.factors[1], col_eigs).max() <= 1e-8

    def test_exempt_mode_gets_identity(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((4, 3, 8))
        result = hosvd(t, theta=0.98, exempt_modes={2})
        np.testing.assert_array_equal(result.factors[2], np.eye(8))
        assert result.kept_ranks[2] == 8
        assert result.mode_energy[2] == 1.0

    def test_small_singular_values_of_wide_unfolding_stay_accurate(self):
        # a 4 x 40000 unfolding whose singular values span 1e-10: the
        # energies at explicit ranks give the spectrum the HOSVD used
        rng = np.random.default_rng(11)
        sigmas = np.array([1.0, 1e-3, 1e-6, 1e-10])
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((40000, 4)))
        t = (u * sigmas) @ v.T
        energy = [hosvd(t, ranks=(r, 1)).mode_energy[0] for r in (1, 2, 3)]
        used = np.diff([0.0, *energy, 1.0])
        oracle = np.linalg.svd(t, compute_uv=False)
        np.testing.assert_allclose(used, oracle / oracle.sum(), rtol=1e-4)

    def test_tall_unfolding_keeps_thin_factors(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((20000, 3))
        result = hosvd(t, theta=0.98)
        assert result.factors[0].shape[1] <= 3
        assert result.factors[1].shape[0] == 3
        f = result.factors[0]
        np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)

    def test_rank_beyond_thin_svd_supply(self):
        # a 5 x 3 unfolding has only 3 thin singular triplets; asking for 4
        # orthonormal directions must still work deterministically
        rng = np.random.default_rng(12)
        t = rng.standard_normal((5, 3))
        result = hosvd(t, ranks=(4, 2))
        f = result.factors[0]
        assert f.shape == (5, 4)
        np.testing.assert_allclose(f.T @ f, np.eye(4), atol=1e-10)

    def test_rank_exceeding_extent_rejected(self):
        with pytest.raises(DimensionError):
            hosvd(np.ones((3, 3)), ranks=(4, 2))

    def test_zero_tensor_rejected(self):
        with pytest.raises(DegenerateModeError):
            hosvd(np.zeros((3, 3)), theta=0.9)

    def test_policy_exclusivity(self):
        with pytest.raises(DimensionError):
            hosvd(np.ones((2, 2)), ranks=(1, 1), theta=0.5)
        with pytest.raises(DimensionError):
            hosvd(np.ones((2, 2)))


class TestReconstruct:
    def test_zero_core(self):
        result = hosvd(np.ones((3, 4)), ranks=(1, 1))
        zeroed = type(result)(
            factors=result.factors,
            core=np.zeros_like(result.core),
            kept_ranks=result.kept_ranks,
            mode_energy=result.mode_energy,
            input_shape=result.input_shape,
        )
        np.testing.assert_array_equal(reconstruct(zeroed), np.zeros((3, 4)))


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.arange(12.0).reshape(3, 4)
        assert psnr(img, img) == math.inf

    def test_full_scale_offset_is_zero_db(self):
        img = np.zeros((4, 4))
        assert psnr(img, img + 255.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(13)
        a = rng.random((4, 5)) * 255
        b = rng.random((4, 5)) * 255
        mse = 0.0
        for i in range(4):
            for j in range(5):
                mse += (a[i, j] - b[i, j]) ** 2
        mse /= 20
        expect = 20 * math.log10(255 / math.sqrt(mse))
        assert psnr(a, b) == pytest.approx(expect, rel=1e-10)

    def test_monotone_under_noise_schedule(self):
        rng = np.random.default_rng(14)
        img = rng.random((16, 16)) * 255
        direction = rng.standard_normal((16, 16))
        previous = math.inf
        for amplitude in (0.5, 1.0, 2.0, 4.0, 8.0):
            value = psnr(img, img + amplitude * direction)
            assert value < previous
            previous = value

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)))


class TestCompressionRatios:
    def test_direct_arithmetic(self):
        fraction = pca_compression_fraction(10, 4 * 5, 2)
        assert 1.0 / fraction == pytest.approx(200 / 60)
        assert fraction == pytest.approx(0.3)

    def test_tiny_case_expands(self):
        fraction = pca_compression_fraction(1, 1 * 1, 1)
        assert 1.0 / fraction == pytest.approx(0.5)
        assert fraction == pytest.approx(2.0)
        assert hopca_compression_fraction(1, (1, 1), (1, 1)) == pytest.approx(3.0)

    def test_two_sided_formula(self):
        expect = 100 * 112 * 92 / (100 * 8 * 8 + 112 * 8 + 92 * 8)
        fraction = hopca_compression_fraction(100, (112, 92), (8, 8))
        assert 1.0 / fraction == pytest.approx(expect)
        assert fraction == pytest.approx(1 / expect)

    def test_order2_fraction_helper_consistent(self):
        # the order-2 (two-sided) storage formula, M samples of m x n data
        M, m, n, p, d, q = 30, 12, 9, 3, 4, 2
        assert hopca_compression_fraction(M, (m, n), (d, q)) == pytest.approx(
            (M * d * q + m * d + n * q) / (M * m * n)
        )
        assert pca_compression_fraction(M, m * n, p) == pytest.approx(
            (M * p + m * n * p) / (M * m * n)
        )

    def test_video_scale_magnitude(self):
        # 80 sequences of silhouette frames kept at 6x3x3
        fraction = hopca_compression_fraction(80, (64, 48, 10), (6, 3, 3))
        assert 0.001 < fraction < 0.01

    def test_positivity_enforced(self):
        with pytest.raises(DimensionError):
            pca_compression_fraction(0, 1, 1)
        with pytest.raises(DimensionError):
            hopca_compression_fraction(0, (1, 1), (1, 1))
        with pytest.raises(DimensionError):
            hopca_compression_fraction(1, (1, 1), (0, 1))
