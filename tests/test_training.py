import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.linalg

from tensorgda import tensor
from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import ConfigurationError
from tensorgda.evaluation import classify, classify_many, split_indices, train_method
from tensorgda.linalg import ratio_trace_eig
from tensorgda.model_io import save_model
from tensorgda.training import (
    LabeledTensorSet,
    TrainingConfig,
    class_means,
    default_target_dims,
    deviation_stacks,
    eval_objective,
    hosvd_stage,
    k_mode_optimize,
    scatter_matrices,
    train_fisherface,
    train_gda,
    train_hopca,
    train_mda,
    train_pca,
    vector_pca,
)

from oracles import principal_angles, stacked_set


def vector_lda_oracle(vectors, labels, d, ridge=1e-6):
    """Classical Fisher LDA via SciPy's generalized symmetric solver.

    ``vectors`` has samples as columns.  Independent of the package's
    whitening-based route.
    """
    labels = np.asarray(labels)
    dim = vectors.shape[0]
    overall = vectors.mean(axis=1)
    s_b = np.zeros((dim, dim))
    s_w = np.zeros((dim, dim))
    for c in np.unique(labels):
        block = vectors[:, labels == c]
        mu = block.mean(axis=1)
        delta = mu - overall
        s_b += block.shape[1] * np.outer(delta, delta)
        centered = block - mu[:, None]
        s_w += centered @ centered.T
    reg = s_w + ridge * np.trace(s_w) / dim * np.eye(dim)
    _, vecs = scipy.linalg.eigh(s_b, reg)
    return vecs[:, ::-1][:, :d]


def gaussian_vectors(rng, n_classes, per_class, dim, separation, noise):
    samples, labels = [], []
    for c in range(1, n_classes + 1):
        center = separation * rng.standard_normal(dim)
        for _ in range(per_class):
            samples.append(center + noise * rng.standard_normal(dim))
            labels.append(c)
    return stacked_set(samples, labels)


class TestLabeledTensorSet:
    def test_counts_and_classes(self):
        data = stacked_set(
            [np.zeros((2, 2))] * 5, [3, 1, 3, 1, 3]
        )
        np.testing.assert_array_equal(data.classes, [1, 3])
        np.testing.assert_array_equal(data.class_counts(), [2, 3])

    def test_subset_keeps_subjects(self):
        data = stacked_set(
            [np.zeros((2,)) for _ in range(4)], [1, 1, 2, 2], subjects=[1, 2, 1, 2]
        )
        sub = data.subset([0, 3])
        np.testing.assert_array_equal(sub.subjects, [1, 2])


class TestClassMeans:
    def test_singleton_classes(self):
        rng = np.random.default_rng(0)
        samples = [rng.standard_normal((3, 2)) for _ in range(3)]
        data = stacked_set(samples, [1, 2, 3])
        means, _ = class_means(data)
        for mean, sample in zip(means, samples):
            np.testing.assert_array_equal(mean, sample)

    def test_opposite_singletons_cancel(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 3))
        data = stacked_set([t, -t], [1, 2])
        _, overall = class_means(data)
        np.testing.assert_allclose(overall, np.zeros_like(t), atol=1e-16)

    def test_weighted_mean_identity(self):
        rng = np.random.default_rng(2)
        samples = [rng.standard_normal((2, 2)) for _ in range(9)]
        labels = [1, 1, 2, 2, 2, 3, 3, 3, 3]
        data = stacked_set(samples, labels)
        means, overall = class_means(data)
        counts = data.class_counts()
        weighted = sum(n * m for n, m in zip(counts, means)) / data.n_samples
        np.testing.assert_allclose(weighted, overall, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("method", ["gda", "mda", "hopca", "pca", "fisherface"])
def test_model_bytes_do_not_depend_on_the_stack_layout(method, tmp_path):
    """A C-contiguous stack and the sample-major stack of the same values
    train to the same model file."""
    data = synth_gaussian_classes(5, 6, (9, 7), 3.0, 1.0, seed=1)
    c_stack = np.ascontiguousarray(data.samples)
    sample_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(c_stack, -1, 0)), 0, -1)
    written = []
    for layout, samples in (("c", c_stack), ("sample-major", sample_major)):
        model = train_method(method, LabeledTensorSet(samples, data.labels), None)
        save_model(model, tmp_path / layout)
        written.append((tmp_path / layout).read_bytes())
    assert written[0] == written[1]


def scatter_via_materialized_kronecker(data, projectors, mode):
    """Oracle: build the explicit Kronecker factor (highest mode first,
    skipping ``mode``) and evaluate the sandwich form directly."""
    n = data.order
    mats = [projectors[j].T for j in reversed(range(n)) if j != mode]
    u_p = mats[0]
    for m in mats[1:]:
        u_p = np.kron(u_p, m)
    sandwich = u_p.T @ u_p
    means, overall = class_means(data)
    counts = data.class_counts()
    size = data.sample_shape[mode]
    s_b = np.zeros((size, size))
    s_w = np.zeros((size, size))
    for idx, c in enumerate(data.classes):
        flat = tensor.unfold(means[idx] - overall, mode)
        s_b += counts[idx] * flat @ sandwich @ flat.T
        for i in np.flatnonzero(data.labels == c):
            flat = tensor.unfold(data.samples[..., i] - means[idx], mode)
            s_w += flat @ sandwich @ flat.T
    return s_b, s_w


class TestScatterMatrices:
    def test_vector_case_reduces_to_classical_lda_scatters(self):
        rng = np.random.default_rng(3)
        data = gaussian_vectors(rng, 3, 5, 6, separation=2.0, noise=1.0)
        got_b, got_w = scatter_matrices(data, [np.eye(6)], 0)
        vectors = data.samples
        overall = vectors.mean(axis=1)
        s_b = np.zeros((6, 6))
        s_w = np.zeros((6, 6))
        for c in np.unique(data.labels):
            block = vectors[:, data.labels == c]
            mu = block.mean(axis=1)
            s_b += block.shape[1] * np.outer(mu - overall, mu - overall)
            centered = block - mu[:, None]
            s_w += centered @ centered.T
        np.testing.assert_allclose(got_b, s_b, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got_w, s_w, rtol=1e-10, atol=1e-10)

    def test_equal_samples_give_zero_within(self):
        t = np.arange(6.0).reshape(2, 3)
        data = stacked_set([t, t, t - 5.0], [1, 1, 2])
        _, s_w = scatter_matrices(data, [np.eye(2), np.eye(3)], 0)
        np.testing.assert_allclose(s_w, np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_materialized_kronecker_oracle(self, seed):
        """Equal grouped classes, and unequal interleaved ones, which catch
        a misaligned count weight or label-to-class-mean lookup."""
        rng = np.random.default_rng(seed)
        shape = (4, 3, 5)
        dims = (2, 2, 3)
        samples = [rng.standard_normal(shape) for _ in range(8)]
        grouped = stacked_set(samples, [1, 1, 1, 1, 2, 2, 2, 2])
        projectors = [
            np.linalg.qr(rng.standard_normal((shape[j], dims[j])))[0]
            for j in range(3)
        ]
        labels = [2, 1, 3, 1, 2, 1, 3, 1, 1]
        interleaved = stacked_set(
            [rng.standard_normal(shape) for _ in labels], labels
        )
        for data in (grouped, interleaved):
            for mode in range(3):
                got_b, got_w = scatter_matrices(data, projectors, mode)
                s_b, s_w = scatter_via_materialized_kronecker(data, projectors, mode)
                np.testing.assert_allclose(
                    got_b, s_b, atol=1e-9 * max(1.0, np.linalg.norm(s_b))
                )
                np.testing.assert_allclose(
                    got_w, s_w, atol=1e-9 * max(1.0, np.linalg.norm(s_w))
                )

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_any_stack_layout_matches_the_oracle(self, layout):
        def relayout(a):
            if layout == "strided":
                wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
                wide[..., ::2] = a
                return wide[..., ::2]
            return np.asarray(a, order=layout)

        rng = np.random.default_rng(8)
        shape, dims = (4, 3, 5), (2, 3, 2)
        labels = [2, 1, 3, 1, 2, 1, 3, 1, 1]
        data = LabeledTensorSet(relayout(rng.standard_normal(shape + (len(labels),))), labels)
        projectors = [np.linalg.qr(rng.standard_normal((s, d)))[0] for s, d in zip(shape, dims)]
        stacks = tuple(relayout(s) for s in deviation_stacks(data))
        for mode in range(3):
            s_b, s_w = scatter_via_materialized_kronecker(data, projectors, mode)
            for got_b, got_w in (
                scatter_matrices(data, projectors, mode),
                scatter_matrices(data, projectors, mode, stacks=stacks),
            ):
                np.testing.assert_allclose(got_b, s_b, atol=1e-12 * np.linalg.norm(s_b))
                np.testing.assert_allclose(got_w, s_w, atol=1e-12 * np.linalg.norm(s_w))

    def test_trace_matches_objective_terms(self):
        """tr(S_B(k)) equals the objective numerator with an identity factor
        at mode k, and likewise for the denominator."""
        rng = np.random.default_rng(4)
        shape = (4, 3, 3)
        samples = [rng.standard_normal(shape) for _ in range(9)]
        data = stacked_set(samples, [1, 1, 1, 2, 2, 2, 3, 3, 3])
        dims = (2, 2, 2)
        projectors = [
            np.linalg.qr(rng.standard_normal((shape[j], dims[j])))[0]
            for j in range(3)
        ]
        per_class, overall = class_means(data)
        counts = data.class_counts()
        for mode in range(3):
            s_b, s_w = scatter_matrices(data, projectors, mode)
            factors = list(projectors)
            factors[mode] = np.eye(shape[mode])
            transposed = [(u.T, k) for k, u in enumerate(factors)]
            numerator = sum(
                int(counts[i])
                * float(
                    np.sum(
                        tensor.multi_mode_product(per_class[i] - overall, transposed)
                        ** 2
                    )
                )
                for i in range(len(counts))
            )
            denominator = 0.0
            for i, c in enumerate(data.classes):
                for j in np.flatnonzero(data.labels == c):
                    denominator += float(
                        np.sum(
                            tensor.multi_mode_product(
                                data.samples[..., j] - per_class[i], transposed
                            )
                            ** 2
                        )
                    )
            assert np.trace(s_b) == pytest.approx(numerator, rel=1e-10)
            assert np.trace(s_w) == pytest.approx(denominator, rel=1e-10)


class TestEvalObjective:
    def test_zero_within_deviation_gives_inf(self):
        t = np.ones((2, 2))
        data = stacked_set([t, t, 2 * t, 2 * t], [1, 1, 2, 2])
        factors = [np.eye(2), np.eye(2)]
        assert eval_objective(scatter_matrices(data, factors, 0), factors[0]) == math.inf

    def test_equal_class_means_give_zero(self):
        v = np.array([[1.0, 0.0], [0.0, -1.0]])
        w = np.array([[0.0, 2.0], [-2.0, 0.0]])
        data = stacked_set([v, -v, w, -w], [1, 1, 2, 2])
        factors = [np.eye(2), np.eye(2)]
        assert eval_objective(scatter_matrices(data, factors, 0), factors[0]) == 0.0

    def test_against_direct_loop(self):
        rng = np.random.default_rng(5)
        shape = (3, 4)
        samples = [rng.standard_normal(shape) for _ in range(6)]
        data = stacked_set(samples, [1, 1, 2, 2, 3, 3])
        dims = (2, 2)
        factors = [
            np.linalg.qr(rng.standard_normal((shape[j], dims[j])))[0]
            for j in range(2)
        ]
        means, overall = class_means(data)
        counts = data.class_counts()
        num = 0.0
        den = 0.0
        for i, c in enumerate(data.classes):
            z = factors[0].T @ (means[i] - overall) @ factors[1]
            num += int(counts[i]) * float(np.sum(z**2))
            for j in np.flatnonzero(data.labels == c):
                z = factors[0].T @ (data.samples[..., j] - means[i]) @ factors[1]
                den += float(np.sum(z**2))
        got = eval_objective(scatter_matrices(data, factors, 0), factors[0])
        assert got == pytest.approx(num / den, rel=1e-10)


def objective_via_sample_loop(data, factors):
    """Reference objective: project every class-mean and within-class
    deviation through all factors, one tensor at a time."""
    means, overall = class_means(data)
    counts = data.class_counts()
    transposed = [(u.T, k) for k, u in enumerate(factors)]
    num = 0.0
    den = 0.0
    for i, c in enumerate(data.classes):
        z = tensor.multi_mode_product(means[i] - overall, transposed)
        num += int(counts[i]) * float(np.sum(z**2))
        for j in np.flatnonzero(data.labels == c):
            z = tensor.multi_mode_product(data.samples[..., j] - means[i], transposed)
            den += float(np.sum(z**2))
    return num / den


class TestKModeOptimize:
    @pytest.mark.parametrize(
        "shape, labels",
        [
            ((6, 5), [1, 2, 1, 3, 2, 1, 3, 3, 2, 1]),
            ((5, 4, 3), [2, 1, 3, 1, 2, 1, 3, 1, 1, 2, 3]),
        ],
    )
    def test_objective_trace_matches_sample_loop(self, shape, labels):
        rng = np.random.default_rng(len(shape))
        data = stacked_set(
            [rng.standard_normal(shape) + label for label in labels], labels
        )
        result = k_mode_optimize(data, TrainingConfig(target_dims=(2,) * len(shape)))
        initial = [np.eye(s)[:, :2] for s in shape]
        assert result.objective_trace[0] == pytest.approx(
            objective_via_sample_loop(data, initial), rel=1e-10
        )
        assert result.objective_trace[-1] == pytest.approx(
            objective_via_sample_loop(data, result.factors), rel=1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_vector_case_matches_lda_oracle(self, seed):
        rng = np.random.default_rng(seed)
        data = gaussian_vectors(rng, 3, 8, 10, separation=3.0, noise=1.0)
        config = TrainingConfig(target_dims=(2,))
        result = k_mode_optimize(data, config)
        oracle = vector_lda_oracle(data.samples, data.labels, 2, ridge=config.ridge)
        assert principal_angles(result.factors[0], oracle).max() <= 1e-6

    def test_separated_classes_score_high(self):
        base_a = np.zeros((4, 4))
        base_a[:2, :2] = 1.0
        base_b = np.zeros((4, 4))
        base_b[2:, 2:] = 1.0
        samples = [base_a * (1 + 1e-4 * i) for i in range(4)]
        samples += [base_b * (1 + 1e-4 * i) for i in range(4)]
        data = stacked_set(samples, [1] * 4 + [2] * 4)
        config = TrainingConfig(target_dims=(1, 1))
        result = k_mode_optimize(data, config)
        assert result.objective_trace[-1] > 1e3
        means, overall = class_means(data)
        projected = [
            tensor.multi_mode_product(m, [(u.T, k) for k, u in enumerate(result.factors)])
            for m in means
        ]
        assert np.linalg.norm(projected[0] - projected[1]) > 1e-3

    def test_objective_final_at_least_initial(self):
        data = synth_gaussian_classes(4, 8, (5, 4), 5.0, 1.0, seed=11)
        result = k_mode_optimize(data, TrainingConfig())
        assert result.objective_trace[-1] >= result.objective_trace[0]

    def test_dims_validation(self):
        data = synth_gaussian_classes(2, 3, (3, 3), 2.0, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            k_mode_optimize(data, TrainingConfig(target_dims=(4, 1)))


class TestStopRule:
    """Sweeps stop once the objective moves by at most ``conv_tol`` relative."""

    def test_huge_tolerance_stops_after_one_sweep(self):
        data = synth_gaussian_classes(3, 5, (5, 4), 4.0, 1.0, seed=0)
        result = k_mode_optimize(data, TrainingConfig(conv_tol=1e9))
        assert (len(result.objective_trace) - 1, result.stop_reason) == (1, "tolerance")

    @pytest.mark.parametrize("trainer", [train_gda, train_mda])
    def test_zero_tolerance_reaches_the_cap_and_warns(self, trainer):
        data = synth_gaussian_classes(3, 5, (5, 4), 4.0, 1.0, seed=0)
        config = TrainingConfig(conv_tol=0.0, max_iters=4)
        result = k_mode_optimize(data, config)
        assert (len(result.objective_trace) - 1, result.stop_reason) == (4, "sweep_cap")
        model = trainer(data, config)
        assert len(model.objective_trace) == 5
        [warning] = model.warnings
        assert "cap of max_iters = 4" in warning and "conv_tol = 0.0" in warning

    def test_stops_when_the_relative_change_is_within_tolerance(self):
        data = synth_gaussian_classes(3, 5, (5, 4), 4.0, 1.0, seed=1)
        result = k_mode_optimize(data, TrainingConfig(conv_tol=1e-3))
        assert result.stop_reason == "tolerance"
        *_, before, last = result.objective_trace
        assert abs(last - before) <= 1e-3 * abs(before)
        for earlier, later in zip(result.objective_trace[:-2], result.objective_trace[1:-1]):
            assert abs(later - earlier) > 1e-3 * abs(earlier)

    def test_infinite_objective_never_settles(self):
        # singleton classes: zero within-class scatter, an objective of inf
        rng = np.random.default_rng(3)
        data = stacked_set(
            [rng.standard_normal((4, 3)) for _ in range(3)], [1, 2, 3]
        )
        result = k_mode_optimize(data, TrainingConfig(conv_tol=1e9, max_iters=3))
        assert result.objective_trace == (math.inf,) * 4
        assert (len(result.objective_trace) - 1, result.stop_reason) == (3, "sweep_cap")
        assert any("cap of max_iters = 3" in w for w in train_mda(
            data, TrainingConfig(conv_tol=1e9, max_iters=3)).warnings)

    def test_hopca_runs_no_sweeps_and_never_warns(self):
        data = synth_gaussian_classes(3, 5, (5, 4), 4.0, 1.0, seed=0)
        model = train_hopca(data, TrainingConfig(conv_tol=0.0, max_iters=1))
        assert (model.objective_trace, model.warnings) == ((), ())


class TestTrainingConfig:
    @pytest.mark.parametrize("values", [
        {"max_iters": 2.5},
        {"max_iters": True},
        {"max_iters": 3.0},
        {"target_dims": (2.5, 2)},
        {"target_dims": (True, 2)},
        {"target_dims": 2},
        {"hosvd_ranks": (3.5, 2)},
        {"hosvd_ranks": (3, False)},
    ])
    def test_non_integral_counts_rejected(self, values):
        [name] = values
        with pytest.raises(ConfigurationError, match=name):
            TrainingConfig(**values)

    @pytest.mark.parametrize("values", [
        {"target_dims": (0, 2)},
        {"target_dims": (-1, 2)},
        {"hosvd_ranks": (3, 0)},
        {"hosvd_ranks": (-2, 3)},
    ])
    def test_counts_below_one_rejected(self, values):
        [name] = values
        with pytest.raises(ConfigurationError, match=f"{name} entries must be at least 1"):
            TrainingConfig(**values)

    @pytest.mark.parametrize("value", [True, 2.5, 0, -1])
    @pytest.mark.parametrize("name", ["pca_dims", "fisherface_pca_dims", "fisherface_lda_dims"])
    def test_baseline_counts_follow_the_count_rule(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            TrainingConfig(**{name: value})

    @pytest.mark.parametrize("values", [
        {"theta": True},
        {"conv_tol": True},
        {"ridge": True},
        {"theta": "0.5"},
        {"ridge": "1"},
        {"conv_tol": None},
    ])
    def test_numbers_are_real_and_not_bool(self, values):
        [name] = values
        with pytest.raises(ConfigurationError, match=name):
            TrainingConfig(**values)

    def test_numpy_integers_accepted(self):
        config = TrainingConfig(max_iters=np.int64(3), target_dims=(np.int64(2), 1),
                                hosvd_ranks=[np.int32(3), 2])
        assert config.max_iters == 3


class TestTrainGda:
    def test_lossless_equals_mda_decisions(self):
        data = synth_gaussian_classes(5, 10, (6, 5, 3), 6.0, 1.0, seed=21)
        train_idx, test_idx = split_indices(data, 6, seed=3, trial=0)
        train, test = data.subset(train_idx), data.subset(test_idx)
        config = TrainingConfig(theta=1.0)
        gda = train_gda(train, config)
        mda = train_mda(train, config)
        for i in range(test.n_samples):
            a, _, _ = classify(gda, test.samples[..., i])
            b, _, _ = classify(mda, test.samples[..., i])
            assert a == b

    def test_full_dims_agree_with_hosvd_alone(self):
        data = synth_gaussian_classes(4, 10, (6, 5), 7.0, 1.0, seed=22)
        train_idx, test_idx = split_indices(data, 6, seed=1, trial=0)
        train, test = data.subset(train_idx), data.subset(test_idx)
        config = TrainingConfig(theta=0.98)
        gda = train_gda(train, config)
        kept = gda.hosvd_ranks
        full = TrainingConfig(theta=0.98, target_dims=kept)
        gda_full = train_gda(train, full)
        hopca = train_hopca(train, full)
        core = LabeledTensorSet(hosvd_stage(train, full).core, train.labels)
        for k, u in enumerate(k_mode_optimize(core, full).factors):
            assert u.shape == (kept[k], kept[k])
            assert abs(np.linalg.det(u)) > 1e-12  # square invertible
        for i in range(test.n_samples):
            a, _, _ = classify(gda_full, test.samples[..., i])
            b, _, _ = classify(hopca, test.samples[..., i])
            assert a == b

    def test_target_dims_beyond_kept_ranks_rejected(self):
        data = synth_gaussian_classes(3, 6, (5, 4), 4.0, 1.0, seed=23)
        config = TrainingConfig(theta=0.5, target_dims=(5, 4))
        with pytest.raises(ConfigurationError, match="theta"):
            train_gda(data, config)

    @pytest.mark.parametrize("train", [train_gda, train_mda, train_hopca])
    @pytest.mark.parametrize("dims", [(2,), (2, 2, 2), (0, 2), (-1, 2), (7, 2)])
    def test_target_dims_checked_for_every_multilinear_kind(self, train, dims):
        data = synth_gaussian_classes(3, 4, (6, 5), 4.0, 1.0, seed=23)
        with pytest.raises(ConfigurationError, match="target"):
            train(data, TrainingConfig(target_dims=dims, theta=1.0))

    def test_combined_factorization_invariant(self):
        data = synth_gaussian_classes(3, 8, (6, 5), 5.0, 1.0, seed=24)
        config = TrainingConfig()
        model = train_gda(data, config)
        decomposition = hosvd_stage(data, config)
        core = LabeledTensorSet(decomposition.core, data.labels)
        dims = default_target_dims(decomposition.kept_ranks[:2], data.n_classes)
        disc = k_mode_optimize(core, TrainingConfig(target_dims=dims)).factors
        for p, v, u in zip(model.combined, decomposition.factors, disc):
            np.testing.assert_allclose(p, v @ u, atol=1e-12)

    def test_hopca_builds_no_core(self, monkeypatch):
        calls = []
        mode_product = tensor.mode_product

        def counted(t, u, mode):
            calls.append(mode)
            return mode_product(t, u, mode)

        monkeypatch.setattr(tensor, "mode_product", counted)
        data = synth_gaussian_classes(3, 6, (6, 5, 4), 5.0, 1.0, seed=28)
        train_hopca(data)
        assert calls == []
        train_gda(data)
        assert calls[:3] == [0, 1, 2]  # the core, before any scatter

    def test_hopca_serves_the_leading_hosvd_columns_bit_for_bit(self):
        data = synth_gaussian_classes(3, 6, (6, 5, 4), 5.0, 1.0, seed=28)
        config = TrainingConfig(hosvd_ranks=(5, 4, 3), target_dims=(3, 2, 2))
        model = train_hopca(data, config)
        bases = hosvd_stage(data, config).factors
        for p, v, d in zip(model.combined, bases, config.target_dims):
            assert p.tobytes() == v[:, :d].tobytes() and p.shape == (v.shape[0], d)
            assert p.flags.c_contiguous

    def test_gda_optimizes_the_hosvd_core_bit_for_bit(self):
        # 210 samples: both modes' transposed unfoldings take the blocked QR
        data = synth_gaussian_classes(3, 70, (6, 5), 2.0, 1.0, seed=29)
        config = TrainingConfig()
        model = train_gda(data, config)
        decomposition = hosvd_stage(data, config)
        core = tensor.multi_mode_product(
            data.samples, [(f.T, k) for k, f in enumerate(decomposition.factors[:2])]
        )
        dims = default_target_dims(decomposition.kept_ranks[:2], data.n_classes)
        result = k_mode_optimize(LabeledTensorSet(core, data.labels),
                                 TrainingConfig(target_dims=dims))
        for p, v, u in zip(model.combined, decomposition.factors, result.factors):
            np.testing.assert_array_equal(p, v @ u)
        assert model.objective_trace == result.objective_trace

    def test_gallery_shape(self):
        data = synth_gaussian_classes(3, 6, (5, 4, 3), 5.0, 1.0, seed=25)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2, 2)))
        assert model.gallery.shape == (data.n_samples, 2 * 2 * 2)

    def test_determinism(self):
        data = synth_gaussian_classes(4, 8, (5, 4), 5.0, 1.0, seed=26)
        a = train_gda(data, TrainingConfig())
        b = train_gda(data, TrainingConfig())
        for pa, pb in zip(a.combined, b.combined):
            assert np.array_equal(pa, pb)
        assert np.array_equal(a.gallery, b.gallery)
        assert a.objective_trace == b.objective_trace

    def test_label_permutation_equivariance(self):
        data = synth_gaussian_classes(3, 8, (5, 4), 6.0, 1.0, seed=27)
        rng = np.random.default_rng(99)
        perm = rng.permutation(data.n_samples)
        shuffled = data.subset(perm)
        a = train_gda(data, TrainingConfig())
        b = train_gda(shuffled, TrainingConfig())
        for pa, pb in zip(a.combined, b.combined):
            np.testing.assert_allclose(pa, pb, atol=1e-12)

    def test_global_scaling_leaves_decisions(self):
        data = synth_gaussian_classes(4, 8, (5, 4), 5.0, 1.0, seed=28)
        train_idx, test_idx = split_indices(data, 5, seed=2, trial=0)
        train, test = data.subset(train_idx), data.subset(test_idx)
        config = TrainingConfig()
        model = train_gda(train, config)
        scaled_train = LabeledTensorSet(
            7.5 * train.samples, train.labels, train.subjects
        )
        scaled_model = train_gda(scaled_train, config)
        for i in range(test.n_samples):
            a, _, _ = classify(model, test.samples[..., i])
            b, _, _ = classify(scaled_model, 7.5 * test.samples[..., i])
            assert a == b

    def test_singleton_class_warns(self):
        rng = np.random.default_rng(29)
        samples = [rng.standard_normal((4, 3)) for _ in range(5)]
        data = stacked_set(samples, [1, 1, 1, 1, 2])
        model = train_gda(data, TrainingConfig(target_dims=(1, 1)))
        assert any("class 2" in w for w in model.warnings)


class TestTrainMda:
    @pytest.mark.parametrize("seed", range(3))
    def test_vector_case_is_classical_lda(self, seed):
        rng = np.random.default_rng(seed + 100)
        data = gaussian_vectors(rng, 3, 10, 12, separation=3.0, noise=1.0)
        config = TrainingConfig(target_dims=(2,))
        model = train_mda(data, config)
        oracle = vector_lda_oracle(data.samples, data.labels, 2, ridge=config.ridge)
        assert principal_angles(model.combined[0], oracle).max() <= 1e-6

    def test_order2_two_sided_factors(self):
        data = synth_gaussian_classes(3, 6, (5, 4), 5.0, 1.0, seed=30)
        model = train_mda(data, TrainingConfig(target_dims=(2, 2)))
        assert model.combined[0].shape == (5, 2)
        assert model.combined[1].shape == (4, 2)
        # no HOSVD stage: the projectors are the discriminant factors
        disc = k_mode_optimize(data, TrainingConfig(target_dims=(2, 2))).factors
        for p, u in zip(model.combined, disc):
            np.testing.assert_array_equal(p, u)
            assert p.flags.c_contiguous

    def test_ridge_engages_when_extents_exceed_samples(self):
        data = synth_gaussian_classes(2, 3, (8, 9), 4.0, 1.0, seed=31)
        model = train_mda(data, TrainingConfig(target_dims=(1, 1)))
        assert model.gallery.shape == (6, 1 * 1)


def offset_8bit_set(seed):
    """A 10-class order-2 set rounded to 8-bit pixel values about 128: every
    sample lies far from the origin, as raw images do."""
    data = synth_gaussian_classes(10, 6, (6, 5), 3.0, 1.0, seed=seed)
    return LabeledTensorSet(np.clip(np.round(128 + 24 * data.samples), 0, 255), data.labels)


class TestModelRecord:
    def test_fields_cannot_be_assigned(self):
        model = train_pca(offset_8bit_set(0))
        with pytest.raises(FrozenInstanceError):
            model.gallery = model.gallery.copy()

    @pytest.mark.parametrize("method", ["gda", "mda", "hopca", "pca", "fisherface"])
    def test_every_gallery_sample_finds_itself_at_distance_zero(self, method):
        data = offset_8bit_set(1)
        data = data.subset(split_indices(data, 3, 1, 0)[0])
        model = train_method(method, data, TrainingConfig())
        _, indices, distances = classify_many(model, data.samples)
        assert indices.tolist() == list(range(data.n_samples))
        assert distances.tolist() == [0.0] * data.n_samples


class TestVectorBaselines:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("train", [train_pca, train_fisherface])
    def test_predictions_match_a_centred_oracle_on_offset_data(self, train, seed):
        data = offset_8bit_set(seed)
        train_idx, test_idx = split_indices(data, 3, seed, 0)
        model = train(data.subset(train_idx))
        # the projector applied to vec(x) - m, m the training mean vector
        vectors = data.samples.reshape(-1, data.n_samples, order="F")
        mean = vectors[:, train_idx].mean(axis=1)
        projected = model.combined[0].T @ (vectors - mean[:, None])
        gallery, queries = projected[:, train_idx], projected[:, test_idx].T
        oracle = np.array([np.linalg.norm(gallery - z[:, None], axis=0) for z in queries])
        _, indices, distances = classify_many(model, data.subset(test_idx).samples)
        assert indices.tolist() == np.argmin(oracle, axis=1).tolist()
        np.testing.assert_allclose(distances, oracle.min(axis=1), rtol=1e-12)

    def test_pca_first_axis_on_diagonal_covariance(self):
        samples = [
            np.array([3.0, 0.0]),
            np.array([-3.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, -1.0]),
        ]
        data = stacked_set(samples, [1, 1, 2, 2])
        model = train_pca(data, TrainingConfig(pca_dims=1))
        np.testing.assert_allclose(np.abs(model.combined[0][:, 0]), [1, 0], atol=1e-12)

    def test_pca_full_dims_preserve_distances(self):
        data = synth_gaussian_classes(3, 5, (4, 5), 3.0, 1.0, seed=32)
        model = train_pca(data, TrainingConfig(pca_dims=data.n_samples - 1))
        raw = data.samples.reshape(-1, data.n_samples, order="F")
        for i in range(data.n_samples):
            for j in range(i + 1, data.n_samples):
                original = np.linalg.norm(raw[:, i] - raw[:, j])
                projected = np.linalg.norm(model.gallery[i] - model.gallery[j])
                assert projected == pytest.approx(original, rel=1e-8)

    def test_pca_dims_bound(self):
        data = synth_gaussian_classes(2, 3, (3, 3), 2.0, 1.0, seed=33)
        with pytest.raises(ConfigurationError):
            train_pca(data, TrainingConfig(pca_dims=6))

    def test_fisherface_matches_lda_decisions_on_vectors(self):
        rng = np.random.default_rng(34)
        data = gaussian_vectors(rng, 2, 10, 8, separation=4.0, noise=1.0)
        model = train_fisherface(
            data, TrainingConfig(fisherface_pca_dims=8, fisherface_lda_dims=1)
        )
        oracle_basis = vector_lda_oracle(data.samples, data.labels, 1)
        gallery_oracle = oracle_basis.T @ (
            data.samples - data.samples.mean(axis=1, keepdims=True)
        )
        for i in range(data.n_samples):
            predicted, _, _ = classify(model, data.samples[..., i])
            z = oracle_basis.T @ (data.samples[..., i] - data.samples.mean(axis=1))
            scan = np.linalg.norm(gallery_oracle - z[:, None], axis=0)
            assert predicted == data.labels[int(np.argmin(scan))]

    def test_fisherface_default_dims(self):
        data = synth_gaussian_classes(3, 6, (4, 4), 4.0, 1.0, seed=35)
        model = train_fisherface(data)
        assert model.combined[0].shape == (16, 2)  # C - 1 discriminants

    @pytest.mark.parametrize("seed", range(5))
    def test_fisherface_matches_per_class_scatter_loop(self, seed):
        data = synth_gaussian_classes(4, 6, (5, 4), 4.0, 1.0, seed=40 + seed)
        model = train_fisherface(data)
        # oracle: the same PCA, then scatters accumulated one class at a time
        pca_dims = data.n_samples - data.n_classes
        _, centered, pca_basis = vector_pca(data, pca_dims)
        reduced = pca_basis.T @ centered
        s_b = np.zeros((pca_dims, pca_dims))
        s_w = np.zeros((pca_dims, pca_dims))
        overall = np.mean(reduced, axis=1)
        for c in data.classes:
            block = reduced[:, data.labels == c]
            mu = np.mean(block, axis=1)
            delta = mu - overall
            s_b += block.shape[1] * np.outer(delta, delta)
            within = block - mu[:, None]
            s_w += within @ within.T
        oracle = pca_basis @ ratio_trace_eig(s_b, s_w, data.n_classes - 1, 1e-6)
        got = model.combined[0]
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
