import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tensorgda import tensor
from tensorgda.errors import (
    ConfigurationError,
    DegenerateModeError,
    DimensionError,
    NumericInputError,
)
from tensorgda.hosvd import (
    _QR_BLOCK,
    _mode_basis,
    _triangle,
    hopca_compression_fraction,
    hosvd,
    psnr,
    reconstruct,
    select_rank,
)

from oracles import principal_angles


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
        result = hosvd(t[..., None], ranks=t.shape)
        np.testing.assert_allclose(
            reconstruct(result)[..., 0], t, atol=1e-8 * np.linalg.norm(t.ravel())
        )

    def test_rank_one_tensor(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.random(4), rng.random(3), rng.random(5)
        t = np.einsum("i,j,k->ijk", a, b, c)
        result = hosvd(t[..., None], ranks=(1, 1, 1))
        np.testing.assert_allclose(
            reconstruct(result)[..., 0], t, atol=1e-10 * np.linalg.norm(t.ravel())
        )

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((6, 5, 4))
        result = hosvd(t[..., None], theta=0.9)
        for f in result.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)

    def test_core_matches_transposed_projection(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((4, 4, 3))
        result = hosvd(t[..., None], ranks=(2, 3, 2))
        expect = tensor.multi_mode_product(
            t, [(result.factors[k].T, k) for k in range(3)]
        )
        np.testing.assert_allclose(
            result.core[..., 0], expect, atol=1e-10 * np.linalg.norm(t.ravel())
        )

    def test_truncation_against_gram_eigen_oracle(self):
        """Same truncation built from eigenvectors of the unfolding Gram
        matrices must reproduce the reconstruction error."""
        rng = np.random.default_rng(5)
        t = rng.standard_normal((6, 5, 4))
        ranks = (3, 3, 2)
        mine = np.linalg.norm((reconstruct(hosvd(t[..., None], ranks=ranks))[..., 0] - t).ravel())

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
        restored = reconstruct(hosvd(t[..., None], ranks=ranks))[..., 0]
        err_sq = np.linalg.norm((restored - t).ravel()) ** 2
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
            result = hosvd(t[..., None], theta=theta)
            err = np.linalg.norm((reconstruct(result)[..., 0] - t).ravel())
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
        result = hosvd(t[..., None], ranks=(3, 2, 2))
        via_projection = tensor.multi_mode_product(
            t, [(f @ f.T, k) for k, f in enumerate(result.factors)]
        )
        np.testing.assert_allclose(
            reconstruct(result)[..., 0],
            via_projection,
            atol=1e-9 * np.linalg.norm(t.ravel()),
        )

    def test_order2_matches_two_sided_pca_oracle(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((7, 6))
        result = hosvd(t[..., None], ranks=(3, 3))
        row_eigs = np.linalg.eigh(t @ t.T)[1][:, ::-1][:, :3]
        col_eigs = np.linalg.eigh(t.T @ t)[1][:, ::-1][:, :3]
        assert principal_angles(result.factors[0], row_eigs).max() <= 1e-8
        assert principal_angles(result.factors[1], col_eigs).max() <= 1e-8

    def test_sample_axis_is_never_decomposed(self):
        rng = np.random.default_rng(10)
        stack = rng.standard_normal((4, 3, 8))
        result = hosvd(stack, theta=0.98)
        assert len(result.factors) == len(result.kept_ranks) == len(result.mode_energy) == 2
        assert [f.shape[0] for f in result.factors] == [4, 3]
        assert result.core.shape == result.kept_ranks + (8,)

    def test_small_singular_values_of_wide_unfolding_stay_accurate(self):
        # a 4 x 40000 unfolding whose singular values span 1e-10: the
        # energies at explicit ranks give the spectrum the HOSVD used
        rng = np.random.default_rng(11)
        sigmas = np.array([1.0, 1e-3, 1e-6, 1e-10])
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((40000, 4)))
        t = (u * sigmas) @ v.T
        energy = [hosvd(t[..., None], ranks=(r, 1)).mode_energy[0] for r in (1, 2, 3)]
        used = np.diff([0.0, *energy, 1.0])
        oracle = np.linalg.svd(t, compute_uv=False)
        np.testing.assert_allclose(used, oracle / oracle.sum(), rtol=1e-4)

    def test_tall_unfolding_keeps_thin_factors(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((20000, 3))
        result = hosvd(t[..., None], theta=0.98)
        assert result.factors[0].shape[1] <= 3
        assert result.factors[1].shape[0] == 3
        f = result.factors[0]
        np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)

    def test_rank_beyond_thin_svd_supply(self):
        # a 5 x 3 unfolding has only 3 thin singular triplets; asking for 4
        # orthonormal directions must still work deterministically
        rng = np.random.default_rng(12)
        t = rng.standard_normal((5, 3))
        result = hosvd(t[..., None], ranks=(4, 2))
        f = result.factors[0]
        assert f.shape == (5, 4)
        np.testing.assert_allclose(f.T @ f, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("ranks,message", [
        ((4, 2), "HOSVD rank 4 exceeds the sample extent 3 of mode 0"),
        ((2, 0), "HOSVD rank 0 of mode 1 must be an integer of at least 1"),
        ((2.5, 2), "HOSVD rank 2.5 of mode 0 must be an integer of at least 1"),
        ((2, True), "HOSVD rank True of mode 1 must be an integer of at least 1"),
        ((2, 2, 1), "expected 2 HOSVD ranks, got 3"),
    ])
    def test_bad_ranks_are_configuration_errors(self, ranks, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            hosvd(np.ones((3, 3))[..., None], ranks=ranks)

    @pytest.mark.parametrize("policy", [{"theta": 0.9}, {"ranks": (1, 1)}])
    def test_zero_tensor_rejected(self, policy):
        with pytest.raises(DegenerateModeError, match="^mode 0 of the input is identically zero$"):
            hosvd(np.zeros((3, 3))[..., None], **policy)

    def test_policy_exclusivity(self):
        with pytest.raises(DimensionError):
            hosvd(np.ones((2, 2))[..., None], ranks=(1, 1), theta=0.5)
        with pytest.raises(DimensionError):
            hosvd(np.ones((2, 2))[..., None])

    def test_lone_tensor_is_not_a_stack(self):
        with pytest.raises(DimensionError, match="t\\[..., None\\]"):
            hosvd(np.ones(3), theta=0.9)


def graded_tensor(shape, seed):
    """Gaussian entries scaled along every mode by a geometric ramp, so each
    mode unfolding has well-separated singular values."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    for k, extent in enumerate(shape):
        ramp = np.geomspace(1.0, 0.05, extent)
        t *= ramp.reshape([-1 if j == k else 1 for j in range(len(shape))])
    return t


@pytest.fixture
def qr_shapes(monkeypatch):
    """The shape of every matrix handed to ``np.linalg.qr``, in call order."""
    shapes = []
    qr = np.linalg.qr

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return shapes


class TestBlockedQr:
    """Transposed unfoldings of two or more blocks of ``max(_QR_BLOCK, 4 I_k)``
    rows are factored block by block, then once more over the stacked
    triangles and the leftover rows."""

    # mode 0: 2160 rows = 4 blocks + 112; mode 1: 1800 rows = 3 blocks + 264;
    # mode 2: 480 rows, one QR
    SHAPE = (20, 24, 90)

    def test_blocks_and_ragged_remainder_are_factored(self, qr_shapes):
        assert _QR_BLOCK == 512
        t = graded_tensor(self.SHAPE, seed=30)
        _mode_basis(tensor.unfold(t, 0), None)
        assert qr_shapes == [(512, 20)] * 4 + [(4 * 20 + 112, 20)]
        qr_shapes.clear()
        _mode_basis(tensor.unfold(t, 1), None)
        assert qr_shapes == [(512, 24)] * 3 + [(3 * 24 + 264, 24)]

    @pytest.mark.parametrize("shape", [SHAPE, (8, 128)])  # (8, 128): 2 blocks, no remainder
    def test_singular_values_match_the_unfolding_svd(self, shape):
        t = graded_tensor(shape, seed=31)
        for k in range(t.ndim):
            _, sigmas = _mode_basis(tensor.unfold(t, k), None)
            oracle = np.linalg.svd(tensor.unfold(t, k), compute_uv=False)
            np.testing.assert_allclose(sigmas, oracle, rtol=1e-12, atol=0)

    def test_kept_factors_span_the_oracle_subspaces(self):
        t = graded_tensor(self.SHAPE, seed=32)
        ranks = (7, 9, 30)
        result = hosvd(t[..., None], ranks=ranks)
        for k, factor in enumerate(result.factors):
            u = np.linalg.svd(tensor.unfold(t, k), full_matrices=False)[0][:, : ranks[k]]
            assert principal_angles(factor, u).max() < 1e-10
            np.testing.assert_allclose(factor.T @ factor, np.eye(ranks[k]), atol=1e-12)

    def test_mode_longer_than_one_block(self, qr_shapes):
        # I_k = 520 > _QR_BLOCK: blocks of 4 I_k = 2080 rows, 2 of them and 100 over
        t = graded_tensor((520, 4260), seed=33)
        basis, sigmas = _mode_basis(t, None)
        assert qr_shapes == [(2080, 520)] * 2 + [(2 * 520 + 100, 520)]
        u, oracle, _ = np.linalg.svd(t, full_matrices=False)
        np.testing.assert_allclose(sigmas, oracle, rtol=1e-12, atol=0)
        assert principal_angles(basis[:, :40], u[:, :40]).max() < 1e-10

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_one_block_is_the_one_shot_qr_bit_for_bit(self, mode, qr_shapes):
        # 1023, 930 and 990 rows: each under two blocks of 512
        t = graded_tensor((30, 33, 31), seed=34)
        rows = tensor.unfold(t, mode).T
        triangle = _triangle(rows)
        assert len(qr_shapes) == 1
        np.testing.assert_array_equal(triangle, np.linalg.qr(rows, mode="r"))


class TestReconstruct:
    def test_zero_core(self):
        result = hosvd(np.ones((3, 4))[..., None], ranks=(1, 1))
        zeroed = replace(result, source=np.zeros_like(result.source))
        np.testing.assert_array_equal(zeroed.core, np.zeros((1, 1, 1)))
        np.testing.assert_array_equal(reconstruct(zeroed), np.zeros((3, 4, 1)))

    def test_full_rank_returns_the_source_bit_for_bit(self):
        stack = np.random.default_rng(15).standard_normal((4, 3, 5, 6))
        result = hosvd(stack, ranks=(4, 3, 5))
        np.testing.assert_array_equal(reconstruct(result), stack)

    @pytest.mark.parametrize("ranks", [(3, 2, 4), (2, 5, 1)])
    def test_stack_equals_each_sample_alone_bit_for_bit(self, ranks):
        stack = graded_tensor((6, 5, 4, 7), seed=16)
        result = hosvd(stack, ranks=ranks)
        whole = reconstruct(result)
        for i in range(stack.shape[-1]):
            alone = reconstruct(replace(result, source=stack[..., i:i + 1]))
            np.testing.assert_array_equal(alone[..., 0], whole[..., i])


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

    def test_overflowing_squared_error_is_a_numeric_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericInputError, match="not finite"):
            psnr(np.zeros((2, 2)), np.full((2, 2), 1e300))


class TestCompressionRatios:
    def test_direct_arithmetic(self):
        fraction = hopca_compression_fraction(10, (4 * 5,), (2,))
        assert 1.0 / fraction == pytest.approx(200 / 60)
        assert fraction == pytest.approx(0.3)

    def test_tiny_case_expands(self):
        fraction = hopca_compression_fraction(1, (1 * 1,), (1,))
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
        assert hopca_compression_fraction(M, (m * n,), (p,)) == pytest.approx(
            (M * p + m * n * p) / (M * m * n)
        )

    def test_video_scale_magnitude(self):
        # 80 sequences of silhouette frames kept at 6x3x3
        fraction = hopca_compression_fraction(80, (64, 48, 10), (6, 3, 3))
        assert 0.001 < fraction < 0.01

    def test_positivity_enforced(self):
        with pytest.raises(DimensionError):
            hopca_compression_fraction(0, (1,), (1,))
        with pytest.raises(DimensionError):
            hopca_compression_fraction(0, (1, 1), (1, 1))
        with pytest.raises(DimensionError):
            hopca_compression_fraction(1, (1, 1), (0, 1))
