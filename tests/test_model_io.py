import copy
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgda.datasets import synth_gaussian_classes
from tensorgda.errors import DatasetError, TensorGdaError
from tensorgda.evaluation import classify, classify_many, evaluate_split
from tensorgda.model_io import (
    load_model,
    model_header,
    report_to_text,
    save_model,
    save_report,
)
from tensorgda.training import (
    GdaModel,
    TrainingConfig,
    train_fisherface,
    train_gda,
    train_hopca,
    train_pca,
)

from model_files import read_model_file, write_model_file


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
        assert model_header(loaded) == model_header(model)
        for a, b in zip([*model.combined, model.gallery], [*loaded.combined, loaded.gallery]):
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())

    def test_repeated_saves_byte_identical(self, tmp_path):
        data = synth_gaussian_classes(3, 6, (5, 4), 5.0, 1.0, seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train_gda(data, TrainingConfig()), a)
        save_model(train_gda(data, TrainingConfig()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_objective_trace_still_loads(self, tmp_path):
        data = synth_gaussian_classes(3, 6, (5, 4), 5.0, 1.0, seed=0)
        model = train_gda(data, TrainingConfig(target_dims=(2, 2)))
        model = replace(model, objective_trace=(math.inf,) + model.objective_trace[1:])
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
        doc = json.loads(model_header(model))
        doc["version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError):
            load_model(path)

    def test_mean_vector_is_an_unknown_key(self, tmp_path):
        data = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=12)
        path = tmp_path / "model.json"
        save_model(train_pca(data), path)
        doc, payload = read_model_file(path)
        doc["mean_vector"] = {"shape": [12]}
        write_model_file(path, doc, payload + bytes(8 * 12))
        with pytest.raises(DatasetError, match=r"has unknown key\(s\) mean_vector$"):
            load_model(path)

    @pytest.mark.parametrize("train", [train_gda, train_pca])
    def test_document_stores_each_fact_once(self, train):
        data = synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=12)
        doc = json.loads(model_header(train(data)))
        assert sorted(doc) == [
            "combined", "config", "format", "gallery", "gallery_labels",
            "hosvd_ranks", "kind", "mode_energy",
            "objective_trace", "sample_shape", "subspace_change_trace",
            "version", "warnings",
        ]
        assert doc["version"] == 10

    @pytest.mark.parametrize("train", [train_gda, train_pca])
    def test_payload_is_the_arrays_raw_in_order(self, train, tmp_path):
        model = train(synth_gaussian_classes(3, 4, (4, 3), 4.0, 1.0, seed=12))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc, payload = read_model_file(path)
        arrays = [*model.combined, model.gallery]
        blobs = [*doc["combined"], doc["gallery"]]
        assert all(blob == {"shape": list(a.shape)} for blob, a in zip(blobs, arrays))
        # the gallery is stored as its rows: one flattened entry per row
        assert doc["gallery"] == {"shape": [12, math.prod(model.projected_shape)]}
        assert payload == b"".join(a.astype("<f8").tobytes() for a in arrays)

    def test_save_and_load_move_the_gallery_without_a_copy(self, tmp_path):
        data = synth_gaussian_classes(4, 100, (12, 10), 3.0, 1.0, seed=14)
        model = train_hopca(data, TrainingConfig(theta=1.0, target_dims=(12, 10)))
        assert model.gallery.shape == (400, 120)
        arrays = sum(a.nbytes for a in model.combined) + model.gallery.nbytes
        path = tmp_path / "model.tgda"
        tracemalloc.start()
        try:
            save_model(model, path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_model(path)
            loaded_peak = tracemalloc.get_traced_memory()[1] - saved
        finally:
            tracemalloc.stop()
        assert saved < 64 * 1024
        # each array once, plus its finiteness mask of one byte per entry
        assert loaded_peak < 1.25 * arrays + 64 * 1024
        assert loaded.gallery.flags.c_contiguous and loaded.gallery.flags.owndata
        assert loaded.gallery.tobytes() == model.gallery.tobytes()


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


def _saved_parts(model, directory):
    path = directory / f"{model.kind}.tgda"
    save_model(model, path)
    return read_model_file(path)


# what a header mutation writes: every JSON type, signs, non-finite and huge
# numbers, and an array object; the payload of a zero-sized array is empty
JSON_VALUES = [None, True, 0, -1, 1, 2, 1.5, -0.0, 1e308, math.inf, math.nan, 10**30,
               "", "x", "gda", [], [1], [-1], [1.5], [[1]], ["x"], {},
               {"shape": [0]}, {"shape": [1]}]
# what a shape mutation writes into one extent: an empty, a small, a large,
# and extents that no file or address space holds
EXTENTS = [0, 1, 2, 3, 1000, 2**31, 2**62, 10**30]


def json_paths(node, path=()):
    """Every path into a JSON document, through at most two list entries."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node[:2]):
            yield from json_paths(value, path + (index,))


def _shapes(document) -> list:
    """The shape lists of the header's array objects that still have one."""
    blobs = [document.get("gallery")]
    if isinstance(document.get("combined"), list):
        blobs += document["combined"]
    return [b["shape"] for b in blobs if isinstance(b, dict) and isinstance(b.get("shape"), list)]


@st.composite
def mutated_model_file(draw, files):
    """The bytes of a saved model file after up to 3 header and up to 3
    payload mutations.  A header mutation replaces, deletes or adds a value
    at a path under a drawn key, or changes, adds or drops one extent of an
    array's shape.  A payload mutation cuts it short, appends bytes, or
    overwrites one entry with a non-finite float64.  One header in 8 is
    then cut short."""
    value = st.sampled_from(JSON_VALUES).map(copy.deepcopy)
    document, payload = copy.deepcopy(draw(st.sampled_from(files)))
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["replace", "replace", "delete", "add", "shape"]))
        shapes = _shapes(document)
        if action == "shape" and shapes:
            shape = draw(st.sampled_from(shapes))
            index = draw(st.integers(0, len(shape)))
            extent = draw(st.sampled_from(EXTENTS))
            if index == len(shape):
                shape.append(extent)
            elif draw(st.booleans()):
                shape[index] = extent
            else:
                del shape[index]
            continue
        key = draw(st.sampled_from(sorted(document)))
        path = draw(st.sampled_from(list(json_paths(document[key], (key,)))))
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent["frobnicate"] = draw(value)
        elif action == "add":
            parent.append(draw(value))
        else:
            parent[path[-1]] = draw(value)
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["cut", "append", "non-finite"]))
        if action == "cut":
            del payload[draw(st.integers(0, len(payload))):]
        elif action == "append":
            payload += bytes(draw(st.integers(1, 16)))
        elif len(payload) >= 8:
            offset = 8 * draw(st.integers(0, len(payload) // 8 - 1))
            entry = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            payload[offset:offset + 8] = np.array([entry], "<f8").tobytes()
    header = json.dumps(document).encode("ascii")
    if draw(st.integers(0, 7)) == 7:
        header = header[: len(header) // 2]
    return header + b"\n" + bytes(payload)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """One multilinear and one vectorized model file, as (header, payload),
    the property's seeds."""
    directory = tmp_path_factory.mktemp("fuzz-seeds")
    return [_saved_parts(train(FUZZ_DATA), directory) for train in (train_gda, train_pca)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_load_model_loads_or_raises_a_package_error(tmp_path_factory, fuzz_files, data):
    """Any mutated file loads as a model that classifies, or raises a
    package error; nothing else escapes."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.tgda"
    path.write_bytes(data.draw(mutated_model_file(fuzz_files)))
    try:
        model = load_model(path)
        labels, _, _ = classify_many(model, FUZZ_DATA.samples)
    except TensorGdaError:
        return
    assert isinstance(model, GdaModel) and len(labels) == FUZZ_DATA.n_samples
