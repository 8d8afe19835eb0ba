"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (see conftest).  The recognition
criteria run on synthetic Gaussian-blob data; the separation/noise setting
is calibrated by the raw-space nearest-neighbor oracle, which itself clears
the accuracy bar at that setting.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from tensorgda import tensor
from tensorgda.cli import main as cli_main
from tensorgda.datasets import synth_gaussian_classes
from tensorgda.evaluation import classify, evaluate_split, split_indices
from tensorgda.hosvd import (
    hopca_compression_fraction,
    hosvd,
    psnr,
    reconstruct,
)
from tensorgda.training import (
    LabeledTensorSet,
    TrainingConfig,
    deviation_stacks,
    hosvd_stage,
    k_mode_optimize,
    scatter_matrices,
    train_gda,
    train_mda,
)

from oracles import fold, principal_angles, stacked_set


def test_tensor_algebra_suite():
    """Tensor algebra: Kronecker identity, exact round trips, commutation"""
    rng = np.random.default_rng(2024)
    checked = 0
    started = time.perf_counter()
    while checked < 50:
        order = int(rng.integers(2, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(order))
        t = rng.standard_normal(shape)
        factors = [rng.standard_normal((int(rng.integers(1, 6)), s)) for s in shape]

        # fold/unfold round trips are bit-exact
        for mode in range(order):
            assert np.array_equal(
                fold(tensor.unfold(t, mode), mode, shape), t
            )

        # identity mode product leaves the tensor untouched
        mode = int(rng.integers(0, order))
        np.testing.assert_array_equal(
            tensor.mode_product(t, np.eye(shape[mode]), mode), t
        )

        # distinct-mode products commute
        if order >= 2:
            a_mode, b_mode = 0, order - 1
            a = factors[a_mode]
            b = factors[b_mode]
            one = tensor.mode_product(tensor.mode_product(t, a, a_mode), b, b_mode)
            two = tensor.mode_product(tensor.mode_product(t, b, b_mode), a, a_mode)
            np.testing.assert_allclose(
                one, two, atol=1e-12 * max(1.0, float(np.abs(one).max()))
            )

        # flattened multi-mode product equals the Kronecker form, every mode
        y = tensor.multi_mode_product(t, [(f, k) for k, f in enumerate(factors)])
        for k in range(order):
            others = [factors[m] for m in reversed(range(order)) if m != k]
            kron = others[0] if others else np.eye(1)
            for f in others[1:]:
                kron = np.kron(kron, f)
            expect = factors[k] @ tensor.unfold(t, k) @ kron.T
            scale = max(1.0, float(np.abs(expect).max()))
            np.testing.assert_allclose(
                tensor.unfold(y, k), expect, atol=1e-10 * scale
            )
        checked += 1
    assert time.perf_counter() - started < 60


def test_hosvd_criteria():
    """HOSVD: reconstruction, theta monotonicity, orthonormality, 2D PCA pair"""
    rng = np.random.default_rng(77)
    for shape in ((6, 5, 4), (5, 7), (4, 3, 3, 2)):
        t = rng.standard_normal(shape)
        full = hosvd(t[..., None], ranks=shape)
        err = np.linalg.norm((reconstruct(full)[..., 0] - t).ravel())
        assert err <= 1e-8 * np.linalg.norm(t.ravel())

    t = rng.standard_normal((6, 5, 4))
    previous_dims, previous_err = None, None
    for theta in (0.5, 0.7, 0.9, 0.98, 1.0):
        result = hosvd(t[..., None], theta=theta)
        for f in result.factors:
            np.testing.assert_allclose(
                f.T @ f, np.eye(f.shape[1]), atol=1e-10
            )
        err = np.linalg.norm((reconstruct(result)[..., 0] - t).ravel())
        if previous_dims is not None:
            assert all(a <= b for a, b in zip(previous_dims, result.kept_ranks))
            assert err <= previous_err + 1e-12
        previous_dims, previous_err = result.kept_ranks, err

    # order-2 factor pair against the direct two-sided PCA oracle
    img = rng.standard_normal((9, 7))
    result = hosvd(img[..., None], ranks=(4, 4))
    rows = np.linalg.eigh(img @ img.T)[1][:, ::-1][:, :4]
    cols = np.linalg.eigh(img.T @ img)[1][:, ::-1][:, :4]
    assert principal_angles(result.factors[0], rows).max() <= 1e-8
    assert principal_angles(result.factors[1], cols).max() <= 1e-8


def test_lda_reduction():
    """Order-1 discriminant training matches the vector-LDA oracle, 20 seeds"""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        samples, labels = [], []
        for c in range(3):
            center = 3.0 * rng.standard_normal(12)
            for _ in range(8):
                samples.append(center + rng.standard_normal(12))
                labels.append(c + 1)
        data = stacked_set(samples, labels)
        config = TrainingConfig(target_dims=(2,))
        model = train_mda(data, config)

        vectors = data.samples
        overall = vectors.mean(axis=1)
        s_b = np.zeros((12, 12))
        s_w = np.zeros((12, 12))
        for c in np.unique(labels):
            block = vectors[:, data.labels == c]
            mu = block.mean(axis=1)
            s_b += block.shape[1] * np.outer(mu - overall, mu - overall)
            centered = block - mu[:, None]
            s_w += centered @ centered.T
        reg = s_w + config.ridge * np.trace(s_w) / 12 * np.eye(12)
        oracle = scipy.linalg.eigh(s_b, reg)[1][:, ::-1][:, :2]
        assert principal_angles(model.combined[0], oracle).max() <= 1e-6


def test_lossless_hosvd_equivalence():
    """Theta 1.0 training agrees exactly with the HOSVD-free variant, 5 seeds"""
    for seed in range(5):
        data = synth_gaussian_classes(5, 10, (6, 5, 3), 6.0, 1.0, seed=seed)
        train_idx, test_idx = split_indices(data, 6, seed=seed, trial=0)
        train, test = data.subset(train_idx), data.subset(test_idx)
        config = TrainingConfig(theta=1.0)
        gda = train_gda(train, config)
        mda = train_mda(train, config)
        for i in range(test.n_samples):
            a, _, _ = classify(gda, test.samples[..., i])
            b, _, _ = classify(mda, test.samples[..., i])
            assert a == b


def test_scatter_correctness():
    """Scatter accumulation equals the materialized Kronecker form, 10 seeds"""
    for seed in range(10):
        rng = np.random.default_rng(seed + 1000)
        shape = (4, 3, 5)
        dims = (2, 2, 3)
        samples = [rng.standard_normal(shape) for _ in range(8)]
        data = stacked_set(samples, [1, 1, 1, 1, 2, 2, 2, 2])
        projectors = [
            np.linalg.qr(rng.standard_normal((shape[j], dims[j])))[0]
            for j in range(3)
        ]
        from tensorgda.training import class_means

        means, overall = class_means(data)
        counts = data.class_counts()
        for mode in range(3):
            mats = [projectors[j].T for j in reversed(range(3)) if j != mode]
            u_p = mats[0]
            for m in mats[1:]:
                u_p = np.kron(u_p, m)
            sandwich = u_p.T @ u_p
            size = shape[mode]
            s_b = np.zeros((size, size))
            s_w = np.zeros((size, size))
            for idx, c in enumerate(data.classes):
                flat = tensor.unfold(means[idx] - overall, mode)
                s_b += counts[idx] * flat @ sandwich @ flat.T
                for i in np.flatnonzero(data.labels == c):
                    flat = tensor.unfold(data.samples[..., i] - means[idx], mode)
                    s_w += flat @ sandwich @ flat.T
            got_b, got_w = scatter_matrices(deviation_stacks(data), projectors, mode)
            np.testing.assert_allclose(
                got_b, s_b, atol=1e-9 * max(1.0, np.linalg.norm(s_b))
            )
            np.testing.assert_allclose(
                got_w, s_w, atol=1e-9 * max(1.0, np.linalg.norm(s_w))
            )


def test_desk_scale_recognition():
    """Desk-scale recognition: discriminant beats the bar and chance is chance"""
    started = time.perf_counter()
    methods = ("gda", "mda", "hopca", "pca", "fisherface")

    # calibration oracle: raw-space nearest neighbor on the same fixture
    data = synth_gaussian_classes(10, 10, (8, 8, 4), 8.0, 1.0, seed=101)
    raw = data.samples.reshape(-1, data.n_samples, order="F")
    train_idx, test_idx = split_indices(data, 5, seed=202, trial=0)
    correct = 0
    for i in test_idx:
        distances = np.linalg.norm(raw[:, train_idx] - raw[:, i : i + 1], axis=0)
        predicted = data.labels[train_idx[int(np.argmin(distances))]]
        correct += int(predicted == data.labels[i])
    oracle_accuracy = 100.0 * correct / len(test_idx)
    assert oracle_accuracy >= 95.0  # separation is calibrated

    reports = {
        method: evaluate_split(
            data, method, TrainingConfig(), train_per_class=5, trials=10, seed=202
        )
        for method in ("gda", "pca")
    }
    assert reports["gda"].mean_accuracy >= 95.0
    assert reports["gda"].mean_accuracy >= reports["pca"].mean_accuracy

    # zero separation: every method sits in the 99% binomial band around 10%
    flat = synth_gaussian_classes(10, 10, (8, 8, 4), 0.0, 1.0, seed=303)
    total = 10 * 50  # trials x test samples
    band = 2.576 * math.sqrt(0.1 * 0.9 / total) * 100
    for method in methods:
        report = evaluate_split(
            flat, method, TrainingConfig(), train_per_class=5, trials=10, seed=404
        )
        assert abs(report.mean_accuracy - 10.0) <= band, method
    assert time.perf_counter() - started < 60


def test_convergence_bookkeeping():
    """Objective never ends below its start; separable fixtures converge"""
    # fixtures with genuine truncation: the alternating updates must pay off
    improving = [
        (synth_gaussian_classes(3, 10, (6, 5), 20.0, 1.0, seed=5), (2, 2)),
        (synth_gaussian_classes(10, 10, (8, 8, 4), 8.0, 1.0, seed=101), (3, 3, 2)),
        (synth_gaussian_classes(5, 8, (6, 5), 6.0, 1.0, seed=55), None),
        (synth_gaussian_classes(4, 8, (5, 4, 3), 4.0, 1.0, seed=66), None),
    ]
    for data, dims in improving:
        for trainer in (train_gda, train_mda):
            model = trainer(data, TrainingConfig(target_dims=dims))
            trace = model.objective_trace
            assert trace[-1] >= trace[0]

    # the separable recognition fixtures settle under the default
    # configuration within its 10-sweep budget
    separable = [
        synth_gaussian_classes(10, 10, (8, 8, 4), 8.0, 1.0, seed=101),
        synth_gaussian_classes(10, 10, (8, 8, 4), 8.0, 1.0, seed=102),
        synth_gaussian_classes(8, 8, (6, 5), 8.0, 1.0, seed=70),
        synth_gaussian_classes(7, 8, (5, 4, 3), 8.0, 1.0, seed=71),
    ]
    config = TrainingConfig()
    for data in separable:
        gda_core = LabeledTensorSet(hosvd_stage(data, config).core, data.labels)
        for trainer, core in ((train_gda, gda_core), (train_mda, data)):
            model = trainer(data, config)
            result = k_mode_optimize(deviation_stacks(core), config)
            assert result.objective_trace == model.objective_trace
            assert result.stop_reason == "tolerance"
            assert len(result.objective_trace) - 1 < 10
            assert model.warnings == ()


def test_psnr_and_compression_figures(tmp_path):
    """PSNR matches the loop oracle; compression fractions match the formulas"""
    rng = np.random.default_rng(7)
    a = rng.random((6, 7)) * 255
    b = rng.random((6, 7)) * 255
    mse = 0.0
    for i in range(6):
        for j in range(7):
            mse += (a[i, j] - b[i, j]) ** 2
    mse /= 42.0
    expect = 20 * math.log10(255 / math.sqrt(mse))
    assert psnr(a, b) == pytest.approx(expect, rel=1e-10)

    # formula recheck is exact arithmetic
    assert hopca_compression_fraction(10, (4 * 5,), (2,)) == (10 * 2 + 4 * 5 * 2) / (10 * 4 * 5)
    assert hopca_compression_fraction(10, (4, 5), (2, 2)) == (
        10 * 2 * 2 + 4 * 2 + 5 * 2
    ) / (10 * 4 * 5)

    # theta = 1 must surface the infinite-PSNR sentinel through the CLI
    out = tmp_path / "compress.txt"
    code = cli_main([
        "compress", "--synth", "c=2,per_class=6,shape=6x5,separation=5,noise=1",
        "--theta", "1.0", "--output", str(out),
    ])
    assert code == 0
    sentinel = next(
        line for line in out.read_text().splitlines()
        if line.startswith("psnr_hopca_mean_db")
    )
    assert sentinel.endswith("= inf")
    values = dict(
        line.split(" = ") for line in out.read_text().splitlines() if " = " in line
    )
    assert float(values["pca_ratio"]) == 1.0 / float(values["cr_pca"])

    # video-scale storage fraction lands in the expected decade
    fraction = hopca_compression_fraction(80, (64, 48, 10), (6, 3, 3))
    assert 0.001 < fraction < 0.01


def test_determinism(tmp_path):
    """Repeated seeded runs produce byte-identical models and reports"""
    model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (model_a, model_b):
        code = cli_main([
            "train", "--synth", "c=4,per_class=6,shape=6x5,separation=6,noise=1",
            "--method", "gda", "--seed", "11", "--output", str(path),
        ])
        assert code == 0
    assert model_a.read_bytes() == model_b.read_bytes()

    report_dirs = (tmp_path / "r1", tmp_path / "r2")
    for directory in report_dirs:
        code = cli_main([
            "evaluate", "--synth", "c=4,per_class=6,shape=6x5,separation=6,noise=1",
            "--method", "gda,pca", "--protocol", "split",
            "--train-per-class", "3", "--trials", "3", "--seed", "17",
            "--output-dir", str(directory),
        ])
        assert code == 0
    for name in ("report_split_gda.txt", "report_split_pca.txt"):
        assert (report_dirs[0] / name).read_bytes() == (
            report_dirs[1] / name
        ).read_bytes()
