import json
import math
from dataclasses import fields

import numpy as np
import pytest

from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import DatasetError
from tensorgda.evaluation import classify, evaluate_split
from tensorgda.model_io import (
    _CONFIG_DECODERS,
    load_model,
    model_to_json,
    report_to_text,
    save_model,
    save_report,
)
from tensorgda.training import TrainingConfig, train_fisherface, train_gda, train_pca


def assert_models_equal(a, b):
    assert a.kind == b.kind
    assert a.sample_shape == b.sample_shape
    assert a.vectorized == b.vectorized
    for pa, pb in zip(a.combined, b.combined):
        assert np.array_equal(pa, pb)
    assert np.array_equal(a.gallery, b.gallery)
    assert np.array_equal(a.gallery_labels, b.gallery_labels)
    assert a.objective_trace == b.objective_trace
    assert a.config == b.config


class TestModelContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        data = synth_gaussian_classes(3, 6, (5, 4), 5.0, 1.0, seed=0)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_models_equal(model, loaded)
        assert model_to_json(loaded) == model_to_json(model)

    def test_repeated_saves_byte_identical(self, tmp_path):
        data = synth_gaussian_classes(3, 6, (5, 4), 5.0, 1.0, seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train_gda(data, TrainingConfig()), a)
        save_model(train_gda(data, TrainingConfig()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_objective_trace_still_loads(self, tmp_path):
        data = synth_gaussian_classes(3, 6, (5, 4), 5.0, 1.0, seed=0)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        model.objective_trace = (math.inf,) + model.objective_trace[1:]
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).objective_trace == model.objective_trace

    def test_vectorized_model_roundtrip(self, tmp_path):
        data = synth_gaussian_classes(3, 6, (4, 4), 4.0, 1.0, seed=2)
        for model in (train_pca(data, dims=4), train_fisherface(data)):
            path = tmp_path / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            assert_models_equal(model, loaded)
            assert np.array_equal(model.mean_vector, loaded.mean_vector)
            # loaded model classifies exactly like the original
            for i in range(3):
                assert classify(model, data.sample(i)) == classify(
                    loaded, data.sample(i)
                )

    def test_infinite_objective_survives_roundtrip(self, tmp_path):
        data = synth_gaussian_classes(3, 4, (4, 3), 5.0, 0.0, seed=3)
        model = train_gda(data, TrainingConfig(target_dims=(1, 1)))
        assert math.isinf(model.objective_trace[0])
        path = tmp_path / "model.json"
        save_model(model, path)
        assert math.isinf(load_model(path).objective_trace[0])

    def test_format_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DatasetError):
            load_model(path)
        path.write_text("not json at all")
        with pytest.raises(DatasetError):
            load_model(path)

    def test_version_validation(self, tmp_path):
        data = synth_gaussian_classes(2, 3, (3, 3), 3.0, 1.0, seed=4)
        model = train_gda(data, TrainingConfig(target_dims=(1, 1)))
        doc = json.loads(model_to_json(model))
        doc["version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            load_model(path)

    @pytest.mark.parametrize("train", [train_gda, train_pca])
    def test_document_stores_each_fact_once(self, train):
        data = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=12)
        doc = json.loads(model_to_json(train(data)))
        assert sorted(doc) == [
            "combined", "config", "format", "gallery", "gallery_labels",
            "hosvd_ranks", "kind", "mean_vector", "mode_energy",
            "objective_trace", "sample_shape", "subspace_change_trace",
            "version", "warnings",
        ]
        assert doc["version"] == 3
        assert (doc["mean_vector"] is None) == (doc["kind"] == "gda")

    def test_config_decoders_cover_every_config_field(self):
        assert set(_CONFIG_DECODERS) == {f.name for f in fields(TrainingConfig)}

    def test_timings_never_serialized(self):
        data = synth_gaussian_classes(2, 4, (3, 3), 3.0, 1.0, seed=5)
        model = train_gda(data, TrainingConfig(target_dims=(1, 1)))
        assert model.stage_seconds  # measured during training
        assert "stage_seconds" not in model_to_json(model)


class TestReportText:
    def test_deterministic_and_timing_free(self):
        data = synth_gaussian_classes(3, 6, (4, 3), 4.0, 1.0, seed=6)
        a = evaluate_split(data, "gda", TrainingConfig(), 3, trials=2, seed=7)
        b = evaluate_split(data, "gda", TrainingConfig(), 3, trials=2, seed=7)
        assert report_to_text(a) == report_to_text(b)
        assert a.timings  # measured, but never written
        assert "time" not in report_to_text(a)

    def test_mean_equals_mean_of_trials(self):
        data = synth_gaussian_classes(3, 6, (4, 3), 2.0, 1.5, seed=8)
        report = evaluate_split(data, "gda", TrainingConfig(), 3, trials=5, seed=9)
        text = report_to_text(report)
        mean_line = next(
            line for line in text.splitlines() if line.startswith("mean_accuracy")
        )
        stated = float(mean_line.split("=")[1])
        assert stated == pytest.approx(float(np.mean(report.trial_accuracies)))

    def test_save_report(self, tmp_path):
        data = synth_gaussian_classes(2, 4, (3, 3), 3.0, 1.0, seed=10)
        report = evaluate_split(data, "pca", TrainingConfig(), 2, trials=1, seed=11)
        path = tmp_path / "report.txt"
        save_report(report, path)
        text = path.read_text()
        assert text.startswith("# tensorgda experiment report v1")
        assert "[confusion]" in text
