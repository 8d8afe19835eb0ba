import math
from dataclasses import replace

import numpy as np
import pytest

from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import ConfigurationError, DatasetError
from tensorgda.evaluation import (
    classify,
    evaluate_loo,
    evaluate_split,
    export_projection_2d,
    split_indices,
    train_method,
)
from tensorgda.model_io import report_to_text
from tensorgda.training import (
    GdaModel,
    LabeledTensorSet,
    TrainingConfig,
    train_gda,
    train_pca,
)

from oracles import project_one, stacked_set


def identity_model(shape):
    """A do-nothing multilinear model over the given sample shape, with no
    gallery rows."""
    return GdaModel(
        kind="hopca",
        sample_shape=shape,
        combined=[np.eye(s) for s in shape],
        gallery=np.empty((0, math.prod(shape))),
        gallery_labels=np.array([], dtype=int),
    )


class TestProject:
    def test_identity_projectors(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        model = identity_model((3, 4))
        np.testing.assert_array_equal(project_one(model, x), x)

    def test_zero_tensor(self):
        data = synth_gaussian_classes(2, 4, (4, 3), 3.0, 1.0, seed=1)
        model = train_gda(data, TrainingConfig(target_dims=(1, 1)))
        np.testing.assert_array_equal(
            project_one(model, np.zeros((4, 3))), np.zeros((1, 1))
        )

    def test_matches_sequential_products_any_order(self):
        data = synth_gaussian_classes(3, 5, (5, 4), 4.0, 1.0, seed=2)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        forward = project_one(model, x)
        reverse = (model.combined[0].T @ x) @ model.combined[1]
        np.testing.assert_allclose(forward, reverse, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        model = identity_model((3, 4))
        with pytest.raises(Exception):
            model.project(np.zeros((4, 3))[..., None])


class TestClassify:
    def test_gallery_member_has_zero_distance(self):
        data = synth_gaussian_classes(3, 4, (4, 4), 4.0, 1.0, seed=4)
        model = train_gda(data, TrainingConfig())
        label, index, distance = classify(model, data.sample(5))
        assert index == 5
        assert label == data.labels[5]
        assert distance == 0.0

    def test_gallery_member_zero_distance_for_vector_methods(self):
        data = synth_gaussian_classes(3, 4, (4, 4), 4.0, 1.0, seed=4)
        for method in ("pca", "fisherface"):
            model = train_method(method, data, TrainingConfig())
            _, index, distance = classify(model, data.sample(7))
            assert index == 7
            assert distance == 0.0

    def test_tie_breaks_to_lowest_index(self):
        model = replace(identity_model((2,)), gallery=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        gallery_labels=np.array([7, 8, 9]))
        label, index, _ = classify(model, np.array([0.0, 0.0]))
        assert (label, index) == (7, 0)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        data = synth_gaussian_classes(4, 6, (3, 3), 3.0, 1.0, seed=6)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        for _ in range(20):
            x = rng.standard_normal((3, 3))
            label, index, distance = classify(model, x)
            z = project_one(model, x)
            scan = [np.linalg.norm(row - z.ravel()) for row in model.gallery]
            assert index == int(np.argmin(scan))
            assert distance == pytest.approx(min(scan), rel=1e-12)

    def test_invariant_under_gallery_permutation(self):
        data = synth_gaussian_classes(4, 6, (3, 3), 3.0, 1.0, seed=31)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        rng = np.random.default_rng(32)
        perm = rng.permutation(len(model.gallery))
        permuted = GdaModel(
            kind=model.kind,
            sample_shape=model.sample_shape,
            combined=model.combined,
            gallery=model.gallery[perm],
            gallery_labels=model.gallery_labels[perm],
        )
        for _ in range(10):
            x = rng.standard_normal((3, 3))  # continuous: ties absent
            label_a, index_a, dist_a = classify(model, x)
            label_b, index_b, dist_b = classify(permuted, x)
            assert label_a == label_b
            assert dist_a == dist_b
            assert perm[index_b] == index_a

    def test_empty_gallery_rejected(self):
        model = identity_model((2,))
        with pytest.raises(DatasetError):
            classify(model, np.zeros(2))


class TestSplitProtocol:
    def test_memorizing_dataset_is_perfect(self):
        # duplicate every sample so each test sample also sits in training
        base = synth_gaussian_classes(3, 3, (4, 3), 3.0, 1.0, seed=7)
        doubled = LabeledTensorSet(
            np.concatenate([base.samples, base.samples], axis=-1),
            np.concatenate([base.labels, base.labels]),
        )
        for method in ("gda", "mda", "hopca", "pca", "fisherface"):
            report = evaluate_split(
                doubled, method, TrainingConfig(), train_per_class=3,
                trials=2, seed=8,
            )
            assert report.mean_accuracy == 100.0

    def test_chance_level_when_labels_shuffled(self):
        data = synth_gaussian_classes(10, 8, (4, 4), 6.0, 1.0, seed=9)
        rng = np.random.default_rng(10)
        shuffled = LabeledTensorSet(data.samples, rng.permutation(data.labels))
        report = evaluate_split(
            shuffled, "hopca", TrainingConfig(), train_per_class=4,
            trials=20, seed=11,
        )
        total = 20 * shuffled.n_samples // 2
        band = 2.576 * np.sqrt(0.1 * 0.9 / total) * 100
        assert abs(report.mean_accuracy - 10.0) <= band + 1e-9

    def test_reproducible_with_fixed_seed(self):
        data = synth_gaussian_classes(4, 6, (4, 3), 4.0, 1.0, seed=12)
        first = evaluate_split(
            data, "gda", TrainingConfig(), train_per_class=3, trials=1, seed=13
        )
        second = evaluate_split(
            data, "gda", TrainingConfig(), train_per_class=3, trials=1, seed=13
        )
        assert report_to_text(first) == report_to_text(second)

    def test_splits_shared_across_methods(self):
        data = synth_gaussian_classes(3, 6, (4, 3), 4.0, 1.0, seed=14)
        for trial in range(3):
            a = split_indices(data, 3, seed=15, trial=trial)
            b = split_indices(data, 3, seed=15, trial=trial)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_confusion_rows_sum_to_test_counts(self):
        data = synth_gaussian_classes(4, 6, (4, 3), 2.0, 1.5, seed=16)
        report = evaluate_split(
            data, "gda", TrainingConfig(), train_per_class=3, trials=4, seed=17
        )
        # each class keeps 3 test samples in each of the 4 trials
        assert report.test_counts == (12,) * 4
        assert all(0.0 <= a <= 100.0 for a in report.trial_accuracies)
        assert report.mean_accuracy == pytest.approx(
            float(np.mean(report.trial_accuracies))
        )

    def test_insufficient_samples_rejected(self):
        data = synth_gaussian_classes(3, 4, (3, 3), 3.0, 1.0, seed=18)
        with pytest.raises(ConfigurationError):
            evaluate_split(data, "gda", TrainingConfig(), train_per_class=4)


class TestLooProtocol:
    def test_identical_subjects_are_perfect(self):
        rng = np.random.default_rng(19)
        per_class = {c: rng.standard_normal((4, 3)) for c in (1, 2, 3)}
        samples, labels, subjects = [], [], []
        for subject in (1, 2):
            for c, t in per_class.items():
                samples.append(t.copy())
                labels.append(c)
                subjects.append(subject)
        data = stacked_set(samples, labels, subjects)
        report = evaluate_loo(data, "hopca", TrainingConfig(target_dims=(2, 2)))
        assert report.mean_accuracy == 100.0
        assert report.macro_accuracy == 100.0

    def test_fold_count_equals_subject_count(self):
        data = synth_gaussian_classes(4, 5, (4, 3), 5.0, 1.0, seed=20)
        report = evaluate_loo(data, "gda", TrainingConfig())
        assert len(report.trial_accuracies) == 5  # one fold per subject
        assert report.test_counts == (5,) * 4  # each sample is tested once

    def test_heldout_subject_never_trains(self, monkeypatch):
        data = synth_gaussian_classes(3, 4, (3, 3), 4.0, 1.0, seed=21)
        seen = []
        import tensorgda.evaluation as ev

        original = ev.train_method

        def spy(method, train_set, config):
            seen.append(set(train_set.subjects.tolist()))
            return original(method, train_set, config)

        monkeypatch.setattr(ev, "train_method", spy)
        evaluate_loo(data, "hopca", TrainingConfig(target_dims=(2, 2)))
        subjects = sorted(np.unique(data.subjects).tolist())
        assert len(seen) == len(subjects)
        for held_out, trained_on in zip(subjects, seen):
            assert held_out not in trained_on

    def test_missing_subjects_rejected(self):
        data = synth_gaussian_classes(2, 4, (3, 3), 3.0, 1.0, seed=22)
        stripped = LabeledTensorSet(data.samples, data.labels, None)
        with pytest.raises(DatasetError):
            evaluate_loo(stripped, "gda", TrainingConfig())


class TestExportProjection2d:
    def test_identity_on_two_entry_samples(self):
        rng = np.random.default_rng(23)
        samples = [rng.standard_normal((1, 2)) for _ in range(4)]
        data = stacked_set(samples, [1, 1, 2, 2])
        model = identity_model((1, 2))
        rows = export_projection_2d(model, data, plane="pair")
        for row, sample in zip(rows, samples):
            assert row[0] == sample[0, 0]
            assert row[1] == sample[0, 1]

    def test_separated_classes_stay_separated(self):
        data = synth_gaussian_classes(2, 10, (6, 5), 8.0, 0.5, seed=24)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        rows = export_projection_2d(model, data, plane="1x2")
        coords = {1: [], 2: []}
        for x, y, label in rows:
            coords[int(label)].append((x, y))
        centroids = {
            c: np.mean(np.array(pts), axis=0) for c, pts in coords.items()
        }
        radii = {
            c: max(np.linalg.norm(np.array(p) - centroids[c]) for p in pts)
            for c, pts in coords.items()
        }
        gap = np.linalg.norm(centroids[1] - centroids[2])
        assert gap > max(radii.values())

    def test_row_count_and_labels(self):
        data = synth_gaussian_classes(3, 4, (4, 4), 4.0, 1.0, seed=25)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        for plane in ("1x2", "2x1", "pair"):
            rows = export_projection_2d(model, data, plane=plane)
            assert len(rows) == data.n_samples
            assert [int(r[2]) for r in rows] == data.labels.tolist()

    @pytest.mark.parametrize("shape", [(56, 46), (12, 9), (32, 32)])
    @pytest.mark.parametrize("plane", ["1x2", "2x1"])
    def test_rows_do_not_depend_on_the_set_size(self, shape, plane):
        data = synth_gaussian_classes(6, 10, shape, 3.0, 1.0, seed=7)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2), max_iters=2))
        rows = export_projection_2d(model, data, plane=plane)
        assert rows[:7] == export_projection_2d(model, data.subset(range(7)), plane=plane)

    def test_vectorized_model_uses_leading_coordinates(self):
        data = synth_gaussian_classes(3, 5, (4, 4), 4.0, 1.0, seed=26)
        model = train_pca(data, TrainingConfig(pca_dims=3))
        rows = export_projection_2d(model, data, plane="pair")
        z = project_one(model, data.sample(0))
        assert rows[0][0] == float(z[0]) and rows[0][1] == float(z[1])

    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 2, 2)])
    def test_order3_pair_is_the_first_two_column_major_entries(self, dims):
        data = synth_gaussian_classes(3, 4, (5, 4, 3), 4.0, 1.0, seed=28)
        model = train_gda(data, TrainingConfig(target_dims=dims, theta=1.0))
        assert model.projected_shape == dims
        rows = export_projection_2d(model, data, plane="pair")
        for i, (x, y, _) in enumerate(rows):
            z = project_one(model, data.sample(i)).ravel(order="F")
            assert (x, y) == (z[0], z[1]), f"sample {i}"

    def test_incompatible_plane_rejected(self):
        data = synth_gaussian_classes(2, 4, (3, 3), 3.0, 1.0, seed=27)
        model = train_gda(data, TrainingConfig(target_dims=(1, 1)))
        with pytest.raises(ConfigurationError):
            export_projection_2d(model, data, plane="1x2")
        with pytest.raises(ConfigurationError):
            export_projection_2d(model, data, plane="pair")


class TestMethodDispatch:
    def test_unknown_method(self):
        data = synth_gaussian_classes(2, 3, (3, 3), 3.0, 1.0, seed=29)
        with pytest.raises(ConfigurationError):
            train_method("svm", data, TrainingConfig())

    @pytest.mark.parametrize("method", ["gda", "mda", "hopca", "pca", "fisherface"])
    def test_all_methods_train_and_classify(self, method):
        data = synth_gaussian_classes(3, 6, (4, 4), 5.0, 1.0, seed=30)
        model = train_method(method, data, TrainingConfig())
        label, _, _ = classify(model, data.sample(0))
        assert label in data.classes

    def test_baselines_read_their_config(self):
        data = synth_gaussian_classes(3, 6, (4, 4), 5.0, 1.0, seed=31)
        assert train_method("pca", data, TrainingConfig(pca_dims=3)).projected_shape == (3,)
        config = TrainingConfig(fisherface_pca_dims=6, fisherface_lda_dims=1)
        model = train_method("fisherface", data, config)
        assert model.projected_shape == (1,)
        ridged = train_method("fisherface", data, replace(config, ridge=0.5))
        assert not np.array_equal(ridged.combined[0], model.combined[0])
