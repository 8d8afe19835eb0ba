"""Exactness of the screened nearest-neighbor search.

The oracle is the full direct scan: every distance ``sqrt(sum((g - z)**2))``
by direct difference, then the lowest index among the smallest.  The search
must return the oracle's index and the oracle's distance bits.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import tensorgda.training as tr
from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import DimensionError
from tensorgda.evaluation import classify, classify_many, train_method
from tensorgda.training import GdaModel, TrainingConfig


def identity_model(gallery):
    """A vector model whose projection is the identity, over ``(d, n)``
    gallery columns labeled 100, 101, ..."""
    d, n = gallery.shape
    return GdaModel(
        kind="hopca",
        sample_shape=(d,),
        combined=[np.eye(d)],
        gallery=gallery,
        gallery_labels=np.arange(100, 100 + n),
    )


def direct_scan(gallery, z):
    """``(index, distance)`` of the full direct scan over ``(d, n)`` columns,
    one column at a time."""
    distances = []
    for j in range(gallery.shape[1]):
        delta = gallery[:, j] - z
        distances.append(np.sqrt(np.sum(delta * delta)))
    best = int(np.argmin(distances))
    return best, distances[best]


def parent_classify(model, x):
    """The direct scan as classification did it before the screen, over the
    gallery in its own shape; the reference for non-finite queries."""
    z = model.project(x[..., None])[..., 0]
    deltas = model.gallery - z[..., None]
    distances = np.sqrt(np.sum(deltas**2, axis=tuple(range(deltas.ndim - 1))))
    best = int(np.argmin(distances))
    return model.gallery_labels[best], best, float(distances[best])


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def assert_matches_direct_scan(gallery, queries):
    model = identity_model(gallery)
    labels, indices, distances = classify_many(model, queries)
    for i in range(queries.shape[-1]):
        index, distance = direct_scan(gallery, queries[:, i])
        assert indices[i] == index, f"query {i}"
        assert same_bits(distances[i], distance), f"query {i}"
        assert labels[i] == model.gallery_labels[index]


class TestExactness:
    def test_duplicated_columns_go_to_lowest_index(self):
        rng = np.random.default_rng(40)
        a, b, c = (rng.standard_normal(6) for _ in range(3))
        gallery = np.stack([c, a, b, a, b, c], axis=1)
        model = identity_model(gallery)
        queries = np.stack([a, b, c, a + 1e-3, b - 1e-3], axis=1)
        _, indices, distances = classify_many(model, queries)
        assert indices.tolist() == [1, 2, 0, 1, 2]
        assert distances[:3].tolist() == [0.0, 0.0, 0.0]

    def test_exact_integer_ties_go_to_lowest_index(self):
        z = np.array([3.0, -2.0, 5.0, 1.0])
        v = np.array([1.0, 2.0, -1.0, 0.0])
        far = z + 10.0
        for gallery, expected in (
            (np.stack([far, z + v, z - v], axis=1), 1),
            (np.stack([z - v, far, z + v], axis=1), 0),
            (np.stack([far, far, z + v, z - v, z + v], axis=1), 2),
        ):
            _, index, distance = classify(identity_model(gallery), z)
            assert index == expected
            assert distance == np.sqrt(np.sum(v * v))

    def test_cancellation_where_the_screen_alone_misorders(self):
        # |z| = 1e8 |g - z|: the expansion loses the order, the rerank restores it
        rng = np.random.default_rng(41)
        d, n = 16, 40
        base = rng.standard_normal(d)
        base *= 1e8 / np.linalg.norm(base)
        gallery = base[:, None] + rng.standard_normal((d, n))
        queries = base[:, None] + rng.standard_normal((d, 50))
        screen = np.sum(gallery * gallery, axis=0)[:, None] - 2.0 * (gallery.T @ queries)
        misordered = sum(
            int(np.argmin(screen[:, i])) != direct_scan(gallery, queries[:, i])[0]
            for i in range(queries.shape[1])
        )
        assert misordered > 0
        assert_matches_direct_scan(gallery, queries)

    def test_gradual_underflow(self):
        # products and squares at these scales are subnormal
        rng = np.random.default_rng(42)
        for scale in 10.0 ** np.linspace(-165, -150, 40):
            d, n = int(rng.integers(1, 12)), int(rng.integers(2, 20))
            offset = rng.standard_normal((d, 1)) * scale * rng.choice([0, 1, 10, 100])
            gallery = offset + scale * rng.standard_normal((d, n))
            near = gallery[:, rng.integers(0, n, 5)] + 0.1 * scale * rng.standard_normal((d, 5))
            assert_matches_direct_scan(gallery, np.concatenate([gallery, near], axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_answers_as_the_direct_scan(self, bad):
        data = synth_gaussian_classes(3, 4, (4, 4), 4.0, 1.0, seed=43)
        trained = train_method("gda", data, TrainingConfig())
        rng = np.random.default_rng(44)
        gallery = rng.standard_normal((3, 8))
        for model, x in (
            (trained, data.sample(2).copy()),
            (identity_model(gallery), gallery[:, 5].copy()),
        ):
            x.flat[1] = bad
            label, index, distance = classify(model, x)
            expected = parent_classify(model, x)
            assert (label, index) == expected[:2]
            assert same_bits(distance, expected[2])

    def test_overflowing_norm_answers_as_the_direct_scan(self):
        gallery = np.array([[1e200, 1.0, 2.0], [0.0, 1.0, 3.0]])
        model = identity_model(gallery)
        for z in (np.array([1.0, 1.5]), np.array([1e200, 0.0])):
            label, index, distance = classify(model, z)
            assert (label, index, distance) == parent_classify(model, z)


METHODS = ["gda", "mda", "hopca", "pca", "fisherface"]


class TestBatchIndependence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("block", [1, 2, 7, None])
    def test_classify_equals_classify_many_bit_for_bit(self, method, block, monkeypatch):
        data = synth_gaussian_classes(3, 5, (5, 4), 3.0, 1.5, seed=45)
        model = train_method(method, data, TrainingConfig())
        rng = np.random.default_rng(46)
        queries = np.concatenate(
            [data.samples, data.samples + 0.3 * rng.standard_normal(data.samples.shape)],
            axis=-1,
        )
        singles = [classify(model, queries[..., i]) for i in range(queries.shape[-1])]
        monkeypatch.setattr(tr, "_QUERY_BLOCK", block or queries.shape[-1])
        labels, indices, distances = classify_many(model, queries)
        assert [s[0] for s in singles] == labels.tolist()
        assert [s[1] for s in singles] == indices.tolist()
        assert same_bits([s[2] for s in singles], distances)
        assert indices[: data.n_samples].tolist() == list(range(data.n_samples))
        assert not distances[: data.n_samples].any()

    # two classes give every multilinear mode one projected dim, where a
    # product's kernel depends on the operand layout, not just its shape
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("method", METHODS)
    def test_project_bits_do_not_depend_on_the_batch(self, method, classes):
        data = synth_gaussian_classes(classes, 300 // classes, (6, 5), 3.0, 1.5, seed=48)
        model = train_method(method, data, TrainingConfig(fisherface_pca_dims=12))
        samples = data.samples + np.random.default_rng(49).standard_normal(data.samples.shape)
        singles = [samples[..., i] for i in range(data.n_samples)]
        expected = np.stack([model.project(x[..., None])[..., 0] for x in singles], axis=-1)
        for x, column in zip(singles[:20], np.moveaxis(expected, -1, 0)):
            assert same_bits(model.project(x.copy()[..., None])[..., 0], column)
        assert tr._QUERY_BLOCK == 256  # so the sizes below cross a block boundary
        for size in (1, 2, 7, 256, 257, data.n_samples):
            projected = model.project(samples[..., :size])
            assert projected.flags.c_contiguous
            assert same_bits(projected, expected[..., :size]), f"batch of {size}"
        assert same_bits(model.gallery, model.project(data.samples))
        # samples interleaved (sample axis fastest): no sample is contiguous
        interleaved = np.moveaxis(np.asfortranarray(np.moveaxis(samples, -1, 0)), 0, -1)
        assert same_bits(model.project(interleaved), expected)

    def test_empty_stack(self):
        model = identity_model(np.eye(3))
        labels, indices, distances = classify_many(model, np.empty((3, 0)))
        assert labels.size == indices.size == distances.size == 0

    def test_stack_without_sample_axis_rejected(self):
        with pytest.raises(DimensionError):
            classify_many(identity_model(np.eye(3)), np.float64(1.0))


class TestGalleryMatrix:
    @pytest.mark.parametrize("method", ["gda", "mda", "hopca", "pca", "fisherface"])
    def test_trained_gallery_is_c_contiguous_and_viewed_without_copy(self, method):
        data = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=47)
        model = train_method(method, data, TrainingConfig())
        assert model.gallery.flags.c_contiguous
        matrix, sq_norms, max_sq_norm = model.gallery_matrix()
        assert np.shares_memory(matrix, model.gallery)
        assert matrix.shape == (int(np.prod(model.projected_shape)), data.n_samples)
        np.testing.assert_allclose(sq_norms, np.sum(matrix * matrix, axis=0), rtol=1e-14)
        assert max_sq_norm == sq_norms.max()

    def test_reassigned_gallery_refreshes_cached_norms(self):
        model = identity_model(np.array([[1.0, 5.0], [0.0, 0.0]]))
        assert classify(model, np.array([4.0, 0.0]))[1] == 1
        model.gallery = np.array([[5.0, 1.0], [0.0, 0.0]])
        assert model.gallery_matrix()[1].tolist() == [25.0, 1.0]
        assert classify(model, np.array([4.0, 0.0]))[1] == 0
        model.gallery = np.array([[1.0, 1.0, 4.0], [0.0, 0.0, 9.0]])
        model.gallery_labels = np.array([7, 8, 9])
        assert classify(model, np.array([4.0, 8.0])) == (9, 2, 1.0)


@st.composite
def galleries_and_queries(draw):
    d = draw(st.integers(1, 24))
    n = draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.floats(-3.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # an offset far larger than the spread makes |z| >> |g - z|
    offset = rng.standard_normal((d, 1)) * scale * draw(st.sampled_from([0.0, 1.0, 1e4, 1e8]))
    gallery = offset + scale * rng.standard_normal((d, n))
    if draw(st.booleans()):
        gallery = np.round(gallery / scale) * scale  # lattice points: exact ties
    duplicates = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    for source, target in duplicates:
        gallery[:, target] = gallery[:, source]
    m = draw(st.integers(1, 12))
    near = gallery[:, rng.integers(0, n, m)] + scale * draw(
        st.sampled_from([0.0, 1e-12, 1e-3, 1.0])
    ) * rng.standard_normal((d, m))
    queries = np.concatenate([gallery, near, offset + scale * rng.standard_normal((d, 3))], axis=1)
    return gallery, queries


@seed(20260418)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(galleries_and_queries())
def test_matches_direct_scan_oracle(case):
    gallery, queries = case
    assert_matches_direct_scan(gallery, queries)
