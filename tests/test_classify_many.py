"""Exactness of the screened nearest-neighbor search.

The oracle is the full direct scan: every distance ``sqrt(sum((g - z)**2))``
by direct difference, then the lowest index among the smallest.  The search
must return the oracle's index and the oracle's distance bits.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import tensorgda.evaluation as ev
import tensorgda.training as tr
from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import DimensionError
from tensorgda.evaluation import classify, classify_many, train_method
from tensorgda.training import GdaModel, TrainingConfig


def identity_model(gallery):
    """A vector model whose projection is the identity, over the ``(d, n)``
    columns the oracles read, labeled 100, 101, ...: its gallery holds
    them as its C-contiguous ``(n, d)`` rows."""
    d, n = gallery.shape
    return GdaModel(
        kind="hopca",
        sample_shape=(d,),
        combined=[np.eye(d)],
        gallery=np.ascontiguousarray(gallery.T),
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
    gallery rows; the reference for non-finite queries."""
    z = model.project(x[..., None])[..., 0]
    deltas = model.gallery - z.ravel()
    distances = np.sqrt(np.sum(deltas**2, axis=1))
    best = int(np.argmin(distances))
    return model.gallery_labels[best], best, float(distances[best])


def candidate_counts(monkeypatch):
    """The number of entries each query reranks, recorded as
    ``classify_many`` hands them to its direct difference."""
    counts = []
    nearest = ev._nearest

    def counting(gallery, z, candidates):
        counts.append(len(candidates))
        return nearest(gallery, z, candidates)

    monkeypatch.setattr(ev, "_nearest", counting)
    return counts


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

    def test_near_ties_on_a_common_offset_answer_as_the_direct_scan(self):
        # integers, so z + v and z - v are exact ties; the offset is 1e4
        # times the spread, and 1-ulp nudges and duplicated columns sit far
        # inside the float32 slack
        rng = np.random.default_rng(50)
        d, spread = 24, 8
        offset = np.round(1e4 * spread * rng.standard_normal((d, 1)))
        columns = list((offset + rng.integers(-spread, spread + 1, (d, 20))).T)
        queries = []
        for _ in range(6):
            z = offset[:, 0] + rng.integers(-spread, spread + 1, d)
            v = rng.integers(-3, 4, d)
            v[0] = 2
            farther, closer = z + v, z - v
            farther[0] = np.nextafter(farther[0], np.inf)
            closer[0] = np.nextafter(closer[0], -np.inf)  # z - v has z - 2 here
            columns += [farther, z - v, z + v, z - v, closer]
            queries += [z, np.nextafter(z, np.inf), np.nextafter(z, -np.inf)]
        gallery, queries = np.stack(columns, axis=1), np.stack(queries, axis=1)
        mean = gallery.mean(axis=1, keepdims=True)
        centred = gallery - mean
        products = centred.astype(np.float32).T @ (queries - mean).astype(np.float32)
        screen = np.sum(centred * centred, axis=0)[:, None] - 2.0 * products
        oracle = [direct_scan(gallery, q)[0] for q in queries.T]
        assert (np.argmin(screen, axis=0) != oracle).any()  # the screen alone misorders
        assert_matches_direct_scan(gallery, queries)

    def test_a_common_offset_leaves_one_candidate(self, monkeypatch):
        # uncentred, float32 keeps three digits of the spread here and the
        # slack spans every entry; about the mean it spans one
        rng = np.random.default_rng(51)
        d, n = 32, 100
        offset = 1e4 * rng.standard_normal((d, 1))
        gallery = offset + rng.standard_normal((d, n))
        queries = gallery[:, rng.integers(0, n, 50)] + 0.3 * rng.standard_normal((d, 50))
        counts = candidate_counts(monkeypatch)
        assert_matches_direct_scan(gallery, np.concatenate([gallery, queries], axis=1))
        assert counts == [1] * (n + 50)

    @pytest.mark.parametrize("scale", [2e19, 1e39])
    @pytest.mark.parametrize("far", ["entry", "query"])
    def test_beyond_float32_takes_the_direct_scan_without_warnings(self, scale, far, monkeypatch):
        # 2e19: every value fits float32 but 4M' does not; 1e39: the centred
        # values themselves overflow the cast
        gallery = np.array([[1.0, 1.0, 2.0, 0.5], [0.0, 1.0, 3.0, 0.5]])
        queries = np.array([[1.0, 0.5, 2.0], [1.5, 0.5, 3.0]])
        if far == "entry":
            gallery[0, 0] = scale
        else:
            queries[:, 0] = [scale, 0.0]
        model = identity_model(gallery)
        counts = candidate_counts(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answers = [classify(model, z) for z in queries.T]
        for z, answer in zip(queries.T, answers):
            assert answer == parent_classify(model, z)
        assert counts[0] == gallery.shape[1]
        if far == "entry":
            assert counts == [gallery.shape[1]] * 3

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
        block = block or queries.shape[-1]  # queries screened and samples projected at a time
        monkeypatch.setattr(tr, "_QUERY_BLOCK", block)
        monkeypatch.setattr(tr, "_PROJECT_BYTES", block * queries[..., 0].nbytes)
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
        data = synth_gaussian_classes(classes, 300 // classes, (24, 20), 3.0, 1.5, seed=48)
        model = train_method(method, data, TrainingConfig(fisherface_pca_dims=12))
        samples = data.samples + np.random.default_rng(49).standard_normal(data.samples.shape)
        singles = [samples[..., i] for i in range(data.n_samples)]
        expected = np.stack([model.project(x[..., None])[..., 0] for x in singles], axis=-1)
        for x, column in zip(singles[:20], np.moveaxis(expected, -1, 0)):
            assert same_bits(model.project(x.copy()[..., None])[..., 0], column)
        block = tr._PROJECT_BYTES // samples[..., 0].nbytes  # samples projected at a time
        assert 7 < block < data.n_samples - 1  # so the sizes below straddle a block
        for size in (1, 2, 7, block - 1, block, block + 1, data.n_samples):
            projected = model.project(samples[..., :size])
            assert np.moveaxis(projected, -1, 0).flags.c_contiguous  # sample-major
            assert same_bits(projected, expected[..., :size]), f"batch of {size}"
        rows = np.moveaxis(model.project(data.samples), -1, 0)
        assert same_bits(model.gallery, rows.reshape(data.n_samples, -1))
        assert same_bits(model.project_rows(samples), np.moveaxis(expected, -1, 0))
        # samples interleaved (sample axis fastest): no sample is contiguous
        interleaved = np.moveaxis(np.asfortranarray(np.moveaxis(samples, -1, 0)), 0, -1)
        assert same_bits(model.project(interleaved), expected)

    def test_empty_stack(self):
        model = identity_model(np.eye(3))
        labels, indices, distances = classify_many(model, np.empty((3, 0)))
        assert labels.size == indices.size == distances.size == 0

    @pytest.mark.parametrize("method", ["gda", "pca"])
    def test_empty_stack_of_a_trained_model(self, method):
        data = synth_gaussian_classes(3, 4, (4, 3, 2), 4.0, 1.0, seed=52)
        model = train_method(method, data, TrainingConfig())
        labels, indices, distances = classify_many(model, np.empty(data.sample_shape + (0,)))
        assert labels.shape == indices.shape == distances.shape == (0,)
        assert labels.dtype == model.gallery_labels.dtype

    def test_stack_without_sample_axis_rejected(self):
        with pytest.raises(DimensionError):
            classify_many(identity_model(np.eye(3)), np.float64(1.0))


class TestScreen:
    @pytest.mark.parametrize("method", ["gda", "mda", "hopca", "pca", "fisherface"])
    def test_gallery_rows_are_the_projected_samples_flattened(self, method):
        data = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=47)
        model = train_method(method, data, TrainingConfig())
        gallery = model.gallery
        assert gallery.flags.c_contiguous and gallery.dtype == np.float64
        assert gallery.shape == (data.n_samples, int(np.prod(model.projected_shape)))
        for i in range(data.n_samples):
            z = model.project(data.samples[..., i : i + 1].copy())[..., 0]
            assert same_bits(gallery[i], z.ravel()), f"row {i}"
        rows = model.project_rows(data.samples)
        assert same_bits(rows, gallery) and rows.flags.c_contiguous

    @pytest.mark.parametrize("method", ["gda", "mda", "hopca", "pca", "fisherface"])
    def test_trained_gallery_is_centred_and_rounded_to_float32(self, method):
        data = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=47)
        model = train_method(method, data, TrainingConfig())
        gallery = model.gallery
        mean, sq_norms, max_sq_norm, rows32 = model.screen
        np.testing.assert_allclose(mean, gallery.mean(axis=0), rtol=1e-14)
        centred = gallery - mean
        np.testing.assert_allclose(sq_norms, np.sum(centred * centred, axis=1), rtol=1e-14)
        assert max_sq_norm == sq_norms.max()
        # the only full-size array kept besides the gallery is the float32 copy
        assert mean.shape == gallery.shape[1:] and sq_norms.shape == gallery.shape[:1]
        assert rows32.shape == gallery.shape
        assert rows32.dtype == np.float32 and rows32.flags.c_contiguous
        assert rows32.tobytes() == centred.astype(np.float32).tobytes()

    def test_built_once_per_model_and_anew_for_a_replaced_gallery(self):
        model = identity_model(np.array([[1.0, 5.0], [0.0, 0.0]]))
        screen = model.screen
        assert classify(model, np.array([4.0, 0.0]))[1] == 1
        assert model.screen is screen
        swapped = replace(model, gallery=np.array([[5.0, 0.0], [1.0, 0.0]]))
        mean, sq_norms, max_sq_norm, rows32 = swapped.screen
        assert (mean.tolist(), sq_norms.tolist(), max_sq_norm) == ([3.0, 0.0], [4.0, 4.0], 4.0)
        assert rows32.tolist() == [[2.0, 0.0], [-2.0, 0.0]]
        assert classify(swapped, np.array([4.0, 0.0]))[1] == 0
        assert classify(model, np.array([4.0, 0.0]))[1] == 1
        grown = replace(swapped, gallery=np.array([[1.0, 0.0], [1.0, 0.0], [4.0, 9.0]]),
                        gallery_labels=np.array([7, 8, 9]))
        assert grown.screen[1].tolist() == [10.0, 10.0, 40.0]
        assert classify(grown, np.array([4.0, 8.0])) == (9, 2, 1.0)


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
