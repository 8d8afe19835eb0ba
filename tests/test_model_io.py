import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import DatasetError, TensorGdaError
from tensorgda.evaluation import classify, classify_many, evaluate_split
from tensorgda.model_io import (
    load_model,
    model_to_json,
    report_to_text,
    save_model,
    save_report,
)
from tensorgda.training import (
    GdaModel,
    TrainingConfig,
    train_fisherface,
    train_gda,
    train_pca,
)


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
        for model in (train_pca(data, TrainingConfig(pca_dims=4)), train_fisherface(data)):
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
        assert doc["version"] == 4
        assert (doc["mean_vector"] is None) == (doc["kind"] == "gda")


class TestReportText:
    def test_deterministic_and_timing_free(self):
        data = synth_gaussian_classes(3, 6, (4, 3), 4.0, 1.0, seed=6)
        a = evaluate_split(data, "gda", TrainingConfig(), 3, trials=2, seed=7)
        b = evaluate_split(data, "gda", TrainingConfig(), 3, trials=2, seed=7)
        assert report_to_text(a) == report_to_text(b)
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


FUZZ_DATA = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=13)
# one multilinear and one vectorized model document, the property's seeds
FUZZ_DOCUMENTS = [json.loads(model_to_json(train(FUZZ_DATA))) for train in (train_gda, train_pca)]
# what a mutation writes: every JSON type, signs, non-finite and huge
# numbers, base64 of 0 and 1 float64 values, and an array blob
JSON_VALUES = [None, True, 0, -1, 1, 2, 1.5, -0.0, 1e308, math.inf, math.nan, 10**30,
               "", "x", "gda", "AAAAAAAAAAA=", [], [1], [-1], [1.5], [[1]], ["x"], {},
               {"shape": [1], "data": "AAAAAAAAAAA="}]


def json_paths(node, path=()):
    """Every path into a JSON document, through at most two list entries."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node[:2]):
            yield from json_paths(value, path + (index,))


@st.composite
def mutated_model_json(draw):
    """A saved model's text after 1 to 3 mutations of its document, each
    replacing, deleting or adding a value at a path under a drawn key; one
    text in 8 is then cut short."""
    value = st.sampled_from(JSON_VALUES).map(copy.deepcopy)
    document = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(document)))
        path = draw(st.sampled_from(list(json_paths(document[key], (key,)))))
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(value)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["frobnicate"] = draw(value)
        else:
            parent.append(draw(value))
    text = json.dumps(document)
    return text[: len(text) // 2] if draw(st.integers(0, 7)) == 7 else text


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(mutated_model_json())
def test_load_model_loads_or_raises_a_package_error(tmp_path_factory, text):
    """Any mutated document loads as a model that classifies, or raises a
    package error; nothing else escapes."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
    path.write_text(text)
    try:
        model = load_model(path)
        labels, _, _ = classify_many(model, FUZZ_DATA.samples)
    except TensorGdaError:
        return
    assert isinstance(model, GdaModel) and len(labels) == FUZZ_DATA.n_samples
