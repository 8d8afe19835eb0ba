import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgda import tensor
from tensorgda.errors import DimensionError, InvalidModeError

from oracles import fold


def random_tensor(rng, shape):
    return rng.standard_normal(shape)


def brute_force_unfold(t, mode):
    """Index-by-index unfolding straight from the column formula."""
    shape = t.shape
    rest = [m for m in range(t.ndim) if m != mode]
    out = np.zeros((shape[mode], int(np.prod([shape[m] for m in rest]))))
    for index in np.ndindex(*shape):
        col = 0
        stride = 1
        for m in rest:
            col += index[m] * stride
            stride *= shape[m]
        out[index[mode], col] = t[index]
    return out


class TestUnfold:
    def test_order2_mode0_is_matrix_itself(self):
        t = np.reshape([1.0, 2.0, 3.0, 4.0], (2, 2), order="F")
        assert t[0, 0] == 1 and t[1, 0] == 2 and t[0, 1] == 3 and t[1, 1] == 4
        np.testing.assert_array_equal(tensor.unfold(t, 0), t)

    def test_order2_mode1_is_transpose(self):
        t = np.reshape([1.0, 2.0, 3.0, 4.0], (2, 2), order="F")
        np.testing.assert_array_equal(tensor.unfold(t, 1), t.T)

    def test_against_index_mapping_oracle(self):
        t = np.zeros((2, 3, 2))
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    t[i, j, k] = 1 + i + 2 * j + 6 * k
        got = tensor.unfold(t, 1)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got, brute_force_unfold(t, 1))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 2, 3, 2)])
    def test_random_tensors_all_modes(self, shape):
        rng = np.random.default_rng(7)
        t = random_tensor(rng, shape)
        for mode in range(len(shape)):
            np.testing.assert_array_equal(
                tensor.unfold(t, mode), brute_force_unfold(t, mode)
            )

    def test_invalid_mode(self):
        with pytest.raises(InvalidModeError):
            tensor.unfold(np.zeros((2, 2)), 2)

    @pytest.mark.parametrize(
        "shape, mode, expect", [((3, 0, 2), 1, (0, 6)), ((3, 0, 2), 0, (3, 0)), ((0, 2), 0, (0, 2))]
    )
    def test_zero_extent(self, shape, mode, expect):
        got = tensor.unfold(np.zeros(shape), mode)
        assert got.shape == expect
        assert fold(got, mode, shape).shape == shape


class TestFold:
    @pytest.mark.parametrize("shape,mode", [((3, 4, 2), 0), ((2, 2, 5), 2)])
    def test_roundtrip_bit_exact(self, shape, mode):
        rng = np.random.default_rng(11)
        t = random_tensor(rng, shape)
        back = fold(tensor.unfold(t, mode), mode, shape)
        assert np.array_equal(back, t)


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(3)
        t = random_tensor(rng, (3, 4, 2))
        for mode in range(3):
            np.testing.assert_array_equal(
                tensor.mode_product(t, np.eye(t.shape[mode]), mode), t
            )

    def test_summing_vector(self):
        t = np.reshape([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (2, 3), order="F")
        got = tensor.mode_product(t, np.array([[1.0, 1.0]]), 0)
        np.testing.assert_allclose(got, t.sum(axis=0, keepdims=True))

    def test_against_contraction_oracle(self):
        rng = np.random.default_rng(5)
        t = random_tensor(rng, (3, 4, 2))
        u = random_tensor(rng, (5, 4))
        got = tensor.mode_product(t, u, 1)
        expect = np.zeros((3, 5, 2))
        for i in range(3):
            for jp in range(5):
                for k in range(2):
                    expect[i, jp, k] = sum(
                        u[jp, j] * t[i, j, k] for j in range(4)
                    )
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tensor.mode_product(np.zeros((3, 4)), np.zeros((2, 5)), 1)

    @pytest.mark.parametrize(
        "shape, u_shape, mode, expect",
        [((3, 0, 2), (4, 0), 1, (3, 4, 2)), ((3, 0, 2), (5, 3), 0, (5, 0, 2)), ((0, 2), (3, 2), 1, (0, 3))],
    )
    def test_zero_extent(self, shape, u_shape, mode, expect):
        got = tensor.mode_product(np.zeros(shape), np.ones(u_shape), mode)
        np.testing.assert_array_equal(got, np.zeros(expect))

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 4, 5), (2, 3, 1, 4)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_any_layout_gives_the_unfolded_product_c_contiguous(self, shape, layout):
        rng = np.random.default_rng(len(shape))
        if layout == "strided":
            t = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
        else:
            t = np.asarray(rng.standard_normal(shape), order=layout)
        before = t.copy()
        for mode, extent in enumerate(shape):
            u = rng.standard_normal((extent + 1, extent))
            got = tensor.mode_product(t, u, mode)
            new_shape = shape[:mode] + (extent + 1,) + shape[mode + 1:]
            expect = fold(u @ tensor.unfold(t, mode), mode, new_shape)
            assert got.flags.c_contiguous
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())
        assert np.array_equal(t, before)

    def test_unfolded_form(self):
        rng = np.random.default_rng(9)
        t = random_tensor(rng, (3, 4, 2))
        u = random_tensor(rng, (6, 4))
        got = tensor.unfold(tensor.mode_product(t, u, 1), 1)
        np.testing.assert_allclose(got, u @ tensor.unfold(t, 1), rtol=1e-12)


class TestMultiModeProduct:
    def test_all_identity(self):
        rng = np.random.default_rng(13)
        t = random_tensor(rng, (2, 3, 4))
        factors = [(np.eye(s), k) for k, s in enumerate(t.shape)]
        np.testing.assert_array_equal(tensor.multi_mode_product(t, factors), t)

    def test_commutation(self):
        rng = np.random.default_rng(17)
        t = random_tensor(rng, (3, 4))
        a = random_tensor(rng, (2, 3))
        b = random_tensor(rng, (5, 4))
        first = tensor.multi_mode_product(t, [(a, 0), (b, 1)])
        second = tensor.multi_mode_product(t, [(b, 1), (a, 0)])
        np.testing.assert_allclose(first, second, rtol=1e-12, atol=1e-14)

    def test_kronecker_identity(self):
        rng = np.random.default_rng(19)
        t = random_tensor(rng, (2, 3, 2))
        a = random_tensor(rng, (2, 2))
        b = random_tensor(rng, (2, 3))
        c = random_tensor(rng, (3, 2))
        y = tensor.multi_mode_product(t, [(a, 0), (b, 1), (c, 2)])
        expect = b @ tensor.unfold(t, 1) @ np.kron(c, a).T
        np.testing.assert_allclose(tensor.unfold(y, 1), expect, rtol=1e-10)

    def test_duplicate_mode_rejected(self):
        t = np.zeros((2, 2))
        with pytest.raises(DimensionError):
            tensor.multi_mode_product(t, [(np.eye(2), 0), (np.eye(2), 0)])


class TestPerSampleProducts:
    @pytest.mark.parametrize(
        "shape, dims",
        [((32, 32), (29, 20)), ((6, 5), (1, 3)), ((8,), (3,)), ((10, 8, 6), (5, 1, 3)),
         ((3, 1, 1, 3), (2, 1, 1, 2)), ((8,), (1,)), ((6, 5, 4), (3, None, 2))],
    )
    @pytest.mark.parametrize("form", ["projector", "reconstruction"])
    def test_every_sample_gets_its_one_sample_bits(self, shape, dims, form):
        rng = np.random.default_rng(23)
        bases = [None if d is None else np.linalg.qr(rng.standard_normal((s, d)))[0]
                 for s, d in zip(shape, dims)]  # None: the mode is left as it is
        if form == "projector":  # a served projector, as GdaModel.project passes it
            matrices = [b if b is None else np.ascontiguousarray(b) for b in bases]
        else:  # a compression round trip onto the basis, as reconstruct passes it
            matrices = [b if b is None else (b @ b.T).T for b in bases]
        factors = [(p.T, k) for k, p in enumerate(matrices) if p is not None]
        stack = rng.standard_normal(shape + (18,))[..., ::2]
        samples = np.moveaxis(stack, -1, 0)
        got = tensor.ring_products(samples, matrices)
        for i in range(9):
            alone = tensor.ring_products(np.ascontiguousarray(samples[i:i + 1]), matrices)
            assert got[i:i + 1].shape == alone.shape
            assert got[i].tobytes() == alone.tobytes()
            product = tensor.multi_mode_product(stack[..., i], factors)
            np.testing.assert_allclose(
                got[i], product, rtol=1e-12, atol=1e-12 * np.abs(product).max()
            )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_kronecker_identity_property(shape, seed):
    """Flattened multi-mode products equal the Kronecker form at every mode."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    factors = [rng.standard_normal((rng.integers(1, 5), s)) for s in shape]
    y = tensor.multi_mode_product(t, [(f, k) for k, f in enumerate(factors)])
    for k in range(len(shape)):
        others = [factors[m] for m in reversed(range(len(shape))) if m != k]
        kron = others[0]
        for f in others[1:]:
            kron = np.kron(kron, f)
        expect = factors[k] @ tensor.unfold(t, k) @ kron.T
        scale = max(1.0, float(np.abs(expect).max()))
        np.testing.assert_allclose(tensor.unfold(y, k), expect, atol=1e-10 * scale)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fold_unfold_roundtrip_property(shape, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    for mode in range(len(shape)):
        assert np.array_equal(fold(tensor.unfold(t, mode), mode, shape), t)


class TestArithmetic:
    def test_elementwise_ops_are_ndarray_semantics(self):
        rng = np.random.default_rng(47)
        a = random_tensor(rng, (2, 2))
        b = random_tensor(rng, (2, 2))
        np.testing.assert_array_equal(a + b, np.add(a, b))
        np.testing.assert_array_equal(a - b, np.subtract(a, b))
        np.testing.assert_array_equal(2.5 * a, np.multiply(2.5, a))


class TestBufferContract:
    def test_size_one_modes_are_legal(self):
        t = np.reshape([1.0, 2.0, 3.0], (1, 3, 1), order="F")
        assert tensor.unfold(t, 1).shape == (3, 1)
        assert np.linalg.norm(t.ravel()) == pytest.approx(np.sqrt(14))
