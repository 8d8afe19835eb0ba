
import base64
import json
import math

import numpy as np
import pytest

from tensorgda.cli import main
from tensorgda.datasets import save_pgm
from tensorgda.model_io import load_model, model_to_json


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def pgm_dataset(tmp_path):
    """A small 2-class on-disk dataset built through the synth subcommand."""
    out = tmp_path / "ds"
    code = run([
        "synth", "--spec", "c=2,per_class=5,shape=6x5,separation=8,noise=1",
        "--seed", 3, "--output-dir", out,
    ])
    assert code == 0
    return out / "manifest.tsv"


def parse_report(path):
    values = {}
    for line in path.read_text().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            values[key] = value
    return values


class TestTrain:
    def test_train_writes_loadable_model(self, pgm_dataset, tmp_path):
        model_path = tmp_path / "model.json"
        code = run([
            "train", "--manifest", pgm_dataset, "--method", "gda",
            "--output", model_path, "--seed", 1,
        ])
        assert code == 0
        assert model_path.exists()
        loaded = load_model(model_path)
        assert loaded.kind == "gda"
        raw = model_path.read_text().strip()
        assert model_to_json(loaded) == raw

    def test_invalid_theta_is_usage_error(self, pgm_dataset, tmp_path, capsys):
        code = run([
            "train", "--manifest", pgm_dataset, "--theta", 1.5,
            "--output", tmp_path / "m.json",
        ])
        assert code == 2
        assert "theta" in capsys.readouterr().err

    def test_same_seed_byte_identical_models(self, pgm_dataset, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run([
                "train", "--manifest", pgm_dataset, "--method", "gda",
                "--seed", 7, "--output", path,
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_source_needs_no_files(self, tmp_path):
        code = run([
            "train", "--synth", "c=3,per_class=4,shape=5x4,separation=6,noise=1",
            "--seed", 2, "--output", tmp_path / "m.json",
        ])
        assert code == 0


class TestEvaluate:
    def test_reproducible_single_trial(self, tmp_path):
        args = [
            "evaluate", "--synth", "c=3,per_class=6,shape=5x4,separation=6,noise=1",
            "--method", "gda", "--protocol", "split", "--train-per-class", 3,
            "--trials", 1, "--seed", 5,
        ]
        assert run(args + ["--output-dir", tmp_path / "r1"]) == 0
        assert run(args + ["--output-dir", tmp_path / "r2"]) == 0
        first = (tmp_path / "r1" / "report_split_gda.txt").read_bytes()
        second = (tmp_path / "r2" / "report_split_gda.txt").read_bytes()
        assert first == second

    def test_method_sweep_shares_splits(self, tmp_path):
        code = run([
            "evaluate", "--synth", "c=4,per_class=6,shape=5x4,separation=6,noise=1",
            "--method", "pca,gda", "--protocol", "split", "--train-per-class", 3,
            "--trials", 2, "--seed", 9, "--output-dir", tmp_path,
        ])
        assert code == 0
        pca = parse_report(tmp_path / "report_split_pca.txt")
        gda = parse_report(tmp_path / "report_split_gda.txt")
        assert pca["seed"] == gda["seed"] == "9"
        assert pca["trials"] == gda["trials"] == "2"

    def test_mean_matches_trials(self, tmp_path):
        code = run([
            "evaluate", "--synth", "c=4,per_class=6,shape=4x4,separation=2,noise=2",
            "--method", "gda", "--protocol", "split", "--train-per-class", 3,
            "--trials", 4, "--seed", 11, "--output-dir", tmp_path,
        ])
        assert code == 0
        path = tmp_path / "report_split_gda.txt"
        text = path.read_text().splitlines()
        stated = float(parse_report(path)["mean_accuracy"])
        start = text.index("[trials]") + 2
        accs = []
        while start < len(text) and not text[start].startswith("["):
            accs.append(float(text[start].split("\t")[1]))
            start += 1
        assert stated == pytest.approx(float(np.mean(accs)))

    def test_loo_protocol(self, tmp_path):
        code = run([
            "evaluate", "--synth", "c=3,per_class=5,shape=4x4,separation=6,noise=1",
            "--method", "gda", "--protocol", "loo", "--seed", 13,
            "--output-dir", tmp_path,
        ])
        assert code == 0
        report = parse_report(tmp_path / "report_loo_gda.txt")
        assert report["trials"] == "5"  # one fold per subject
        assert "macro_accuracy" in report

    def test_split_requires_train_per_class(self, tmp_path, capsys):
        code = run([
            "evaluate", "--synth", "c=2,per_class=4,shape=3x3,separation=5,noise=1",
            "--method", "gda", "--output-dir", tmp_path,
        ])
        assert code == 2


class TestCompress:
    def test_theta_one_reports_infinite_psnr(self, tmp_path):
        out = tmp_path / "report.txt"
        code = run([
            "compress", "--synth", "c=2,per_class=6,shape=6x5,separation=5,noise=1",
            "--theta", 1.0, "--output", out,
        ])
        assert code == 0
        report = parse_report(out)
        assert report["psnr_hopca_mean_db"] == "inf"

    def test_psnr_degrades_as_theta_drops(self, tmp_path):
        values = []
        for theta in (1.0, 0.9, 0.7, 0.5):
            out = tmp_path / f"report_{theta}.txt"
            code = run([
                "compress", "--synth",
                "c=2,per_class=6,shape=8x7,separation=5,noise=1",
                "--theta", theta, "--output", out,
            ])
            assert code == 0
            values.append(float(parse_report(out)["psnr_hopca_mean_db"]))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_cr_fields_match_formulas(self, tmp_path):
        out = tmp_path / "report.txt"
        code = run([
            "compress", "--synth", "c=2,per_class=8,shape=8x6,separation=5,noise=1",
            "--theta", 0.9, "--pca-components", 3, "--output", out,
        ])
        assert code == 0
        report = parse_report(out)
        m_samples = int(report["samples"])
        h, w = (int(v) for v in report["sample_shape"].split("x"))
        d, q = (int(v) for v in report["hopca_dims"].split("x"))
        p = int(report["pca_components"])
        hopca = (m_samples * d * q + h * d + w * q) / (m_samples * h * w)
        pca = (m_samples * p + h * w * p) / (m_samples * h * w)
        assert float(report["cr_hopca"]) == hopca
        assert float(report["cr_pca"]) == pca
        assert float(report["hopca_ratio"]) == pytest.approx(1 / hopca)

    def test_order3_reconstructions_written(self, tmp_path):
        recon = tmp_path / "recon"
        out = tmp_path / "report.txt"
        code = run([
            "compress", "--synth",
            "c=2,per_class=3,shape=6x5x4,separation=5,noise=1",
            "--theta", 0.8, "--output", out, "--save-reconstructions", recon,
        ])
        assert code == 0
        assert (recon / "hopca_0000").is_dir()
        assert (recon / "pca_0000").is_dir()


class TestVisualize:
    def test_rows_and_determinism(self, tmp_path):
        args = [
            "visualize", "--synth", "c=3,per_class=5,shape=5x4,separation=6,noise=1",
            "--method", "gda", "--plane", "1x2", "--seed", 4,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 15 + 1
        labels = [int(line.split(",")[2]) for line in lines[1:]]
        assert sorted(set(labels)) == [1, 2, 3]

    def test_saved_model_reuse(self, pgm_dataset, tmp_path):
        model_path = tmp_path / "model.json"
        assert run([
            "train", "--manifest", pgm_dataset, "--method", "gda",
            "--dims", "2x2", "--output", model_path,
        ]) == 0
        out = tmp_path / "proj.csv"
        assert run([
            "visualize", "--manifest", pgm_dataset, "--model", model_path,
            "--plane", "pair", "--output", out,
        ]) == 0
        assert len(out.read_text().splitlines()) == 11


class TestClassify:
    def test_predictions_table(self, pgm_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run([
            "train", "--manifest", pgm_dataset, "--method", "gda",
            "--output", model_path,
        ])
        capsys.readouterr()
        code = run([
            "classify", "--model", model_path, "--manifest", pgm_dataset,
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index\tpredicted\tdistance\ttruth"
        assert any("accuracy = 100.00%" in line for line in lines)


class TestConfigFileAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "synth = c=3,per_class=4,shape=4x4,separation=6,noise=1\n"
            "# comment\n"
            "method = hopca\n"
            "dims = 2x2\n"
        )
        model_path = tmp_path / "m.json"
        code = run([
            "train", "--config", config, "--method", "gda",
            "--output", model_path,
        ])
        assert code == 0
        model = load_model(model_path)
        assert model.kind == "gda"  # command line beats the file
        assert model.projected_shape == (2, 2)  # file filled the rest

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("frobnicate = 1\n")
        code = run([
            "train", "--config", config,
            "--synth", "c=2,per_class=3,shape=3x3,separation=4,noise=1",
            "--output", tmp_path / "m.json",
        ])
        assert code == 2

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = run([
            "train", "--manifest", tmp_path / "absent.tsv",
            "--output", tmp_path / "m.json",
        ])
        assert code == 3

    def test_degenerate_data_is_numeric_error(self, tmp_path, capsys):
        for i in range(4):
            save_pgm(tmp_path / f"z{i}.pgm", np.zeros((4, 4)))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(
            "\n".join(f"z{i}.pgm\t{1 + i % 2}" for i in range(4)) + "\n"
        )
        code = run([
            "train", "--manifest", manifest, "--method", "gda",
            "--output", tmp_path / "m.json",
        ])
        assert code == 4

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        code = run(["train", "--output", tmp_path / "m.json"])
        assert code == 2

    def test_non_integer_synth_value_is_usage_error(self, tmp_path, capsys):
        code = run([
            "train", "--synth", "c=2,per_class=x,shape=3x3",
            "--output", tmp_path / "m.json",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "per_class" in err and "Traceback" not in err

    def test_non_numeric_config_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("max_iters = abc\n")
        code = run([
            "train", "--config", config,
            "--synth", "c=2,per_class=3,shape=3x3,separation=4,noise=1",
            "--output", tmp_path / "m.json",
        ])
        assert code == 2
        assert "max_iters" in capsys.readouterr().err

    def test_non_integer_frames_directive_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("@frames ten\nseq\t1\n")
        code = run([
            "train", "--manifest", manifest, "--output", tmp_path / "m.json",
        ])
        assert code == 3
        assert "@frames" in capsys.readouterr().err

    def test_config_file_sets_seed_and_flag_wins(self, tmp_path):
        synth = ["--synth", "c=3,per_class=4,shape=4x4,separation=6,noise=1"]
        config = tmp_path / "run.conf"
        config.write_text("seed = 5\n")
        paths = {name: tmp_path / f"{name}.json" for name in ("file", "flag", "both", "six")}
        assert run(["train", *synth, "--config", config, "--output", paths["file"]]) == 0
        assert run(["train", *synth, "--seed", 5, "--output", paths["flag"]]) == 0
        assert run([
            "train", *synth, "--config", config, "--seed", 6, "--output", paths["both"],
        ]) == 0
        assert run(["train", *synth, "--seed", 6, "--output", paths["six"]]) == 0
        assert paths["file"].read_bytes() == paths["flag"].read_bytes()
        assert paths["both"].read_bytes() == paths["six"].read_bytes()
        assert paths["file"].read_bytes() != paths["six"].read_bytes()

    SYNTH_LINE = "synth = c=3,per_class=4,shape=4x4,separation=6,noise=1\n"

    def test_config_file_sets_method(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(self.SYNTH_LINE + "method = hopca\n")
        model_path = tmp_path / "m.json"
        assert run(["train", "--config", config, "--output", model_path]) == 0
        assert "method = hopca" in capsys.readouterr().out
        assert load_model(model_path).kind == "hopca"

    def test_config_file_sets_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.conf").write_text(self.SYNTH_LINE + "output = other.json\n")
        assert run(["train", "--config", "run.conf"]) == 0
        assert (tmp_path / "other.json").exists()
        assert not (tmp_path / "model.json").exists()

    def test_config_value_outside_choices_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(self.SYNTH_LINE + "protocol = bogus\n")
        code = run([
            "evaluate", "--config", config, "--output-dir", tmp_path / "reports",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "protocol" in err
        assert not (tmp_path / "reports").exists()

    def test_explicit_flag_overrides_config_value(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            self.SYNTH_LINE + "method = hopca\noutput = " + str(tmp_path / "file.json") + "\n"
        )
        flag_path = tmp_path / "flag.json"
        assert run([
            "train", "--config", config, "--method", "mda", "--output", flag_path,
        ]) == 0
        assert "method = mda" in capsys.readouterr().out
        assert load_model(flag_path).kind == "mda"
        assert not (tmp_path / "file.json").exists()


def _drop_gallery(doc):
    del doc["gallery"]


def _bad_base64(doc):
    doc["combined"][0]["data"] = "not*base64"


def _buffer_misfits_shape(doc):
    rows, cols = doc["combined"][0]["shape"]
    doc["combined"][0]["shape"] = [rows + 1, cols]


def _unknown_kind(doc):
    doc["kind"] = "lda"


def _config_lacks_key(doc):
    del doc["config"]["ridge"]


def _config_unknown_key(doc):
    doc["config"]["frobnicate"] = 1


def _transposed_sample_shape(doc):
    doc["sample_shape"] = doc["sample_shape"][::-1]


def _null_mean_vector(doc):
    doc["mean_vector"] = None


def _multilinear_mean_vector(doc):
    doc["mean_vector"] = {"shape": [1], "data": "AAAAAAAAAAA="}


def _string_objective_trace(doc):
    doc["objective_trace"] = "abc"


def _infinite_hosvd_rank(doc):
    doc["hosvd_ranks"][0] = math.inf


def _string_target_dims(doc):
    doc["config"]["target_dims"] = "1x1"


def _scalar_sample_shape(doc):
    doc["sample_shape"] = 30


def _scalar_warnings(doc):
    doc["warnings"] = 1


def _string_gallery_labels(doc):
    doc["gallery_labels"] = "12"


def _non_finite(key, value):
    """A corrupter that sets the first entry of array ``key`` (of the first
    projector, for ``combined``) to ``value``."""
    def corrupt(doc):
        blob = doc[key][0] if key == "combined" else doc[key]
        values = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8").copy()
        values[0] = value
        blob["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    return corrupt


class TestBadModelFile:
    SYNTH = ["--synth", "c=2,per_class=4,shape=6x5,separation=6,noise=1"]

    @pytest.mark.parametrize("corrupt", [
        _drop_gallery,
        _bad_base64,
        _buffer_misfits_shape,
        _unknown_kind,
        _config_lacks_key,
        _config_unknown_key,
        _transposed_sample_shape,
    ])
    def test_exits_3_with_one_line(self, corrupt, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert run(["train", *self.SYNTH, "--output", path]) == 0
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["classify", *self.SYNTH, "--model", path])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {path} is not a valid model")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method,corrupt,key", [
        ("pca", _null_mean_vector, "mean_vector"),
        ("fisherface", _null_mean_vector, "mean_vector"),
        ("gda", _multilinear_mean_vector, "mean_vector"),
        ("gda", _string_objective_trace, "objective_trace"),
        ("gda", _infinite_hosvd_rank, "hosvd_ranks"),
        ("gda", _string_target_dims, "target_dims"),
        ("gda", _scalar_sample_shape, "sample_shape"),
        ("gda", _scalar_warnings, "warnings"),
        ("gda", _string_gallery_labels, "gallery_labels"),
        ("gda", _non_finite("gallery", math.nan), "gallery"),
        ("hopca", _non_finite("gallery", -math.inf), "gallery"),
        ("gda", _non_finite("combined", math.nan), "combined"),
        ("fisherface", _non_finite("combined", math.inf), "combined"),
        ("pca", _non_finite("mean_vector", math.nan), "mean_vector"),
    ])
    def test_exits_3_naming_the_key(self, method, corrupt, key, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert run(["train", *self.SYNTH, "--method", method, "--output", path]) == 0
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["classify", *self.SYNTH, "--model", path])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {path} is not a valid model: ")
        assert f"{key}: " in err
        assert err.count("\n") == 1

    def _version_error(self, update, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert run(["train", *self.SYNTH, "--output", path]) == 0
        doc = json.loads(path.read_text())
        update(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["classify", *self.SYNTH, "--model", path])
        assert code == 3
        return capsys.readouterr().err.replace(str(path), "MODEL")

    def test_version_1_model_exits_3_with_one_line(self, tmp_path, capsys):
        def v1(doc):
            doc.update(version=1, vectorized=False, hosvd_factors=[], disc_factors=[])
            doc["config"].update(seed=0, gram_crossover=32768)

        err = self._version_error(v1, tmp_path, capsys)
        assert err == "error: MODEL has model version 1, expected 3\n"

    def test_version_2_model_exits_3_with_one_line(self, tmp_path, capsys):
        def v2(doc):
            doc.update(version=2, vectorized=False, hosvd_factors=[], disc_factors=[])

        err = self._version_error(v2, tmp_path, capsys)
        assert err == "error: MODEL has model version 2, expected 3\n"

    def test_string_version_is_quoted(self, tmp_path, capsys):
        err = self._version_error(lambda doc: doc.update(version="3"), tmp_path, capsys)
        assert err == "error: MODEL has model version '3', expected 3\n"


class TestNonFiniteTrainingValues:
    SYNTH = ["--synth", "c=2,per_class=4,shape=6x5,separation=6,noise=1"]

    @pytest.mark.parametrize("flag,value", [
        ("--conv-tol", "nan"),
        ("--conv-tol", "inf"),
        ("--ridge", "inf"),
        ("--ridge", "nan"),
    ])
    def test_exits_2_with_one_line_and_writes_nothing(self, flag, value, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = run(["train", *self.SYNTH, flag, value, "--output", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite")
        assert err.count("\n") == 1
        assert not path.exists()


class TestFileBoundary:
    SYNTH = ["--synth", "c=2,per_class=4,shape=6x5,separation=6,noise=1"]

    def _exits_3_with_one_line(self, argv, capsys):
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_non_utf8_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"method = gda\n# caf\xe9\n")
        err = self._exits_3_with_one_line(
            ["train", *self.SYNTH, "--config", config, "--output", tmp_path / "m.json"],
            capsys,
        )
        assert f"cannot read config {config}" in err

    def test_non_utf8_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"caf\xe9.pgm\t1\n")
        err = self._exits_3_with_one_line(
            ["train", "--manifest", manifest, "--output", tmp_path / "m.json"], capsys
        )
        assert f"cannot read manifest {manifest}" in err

    def test_train_output_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "m.json"
        err = self._exits_3_with_one_line(
            ["train", *self.SYNTH, "--output", path], capsys
        )
        assert err == f"error: cannot access {path}: No such file or directory\n"

    def test_classify_output_in_missing_directory(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(["train", *self.SYNTH, "--output", model]) == 0
        path = tmp_path / "missing" / "predictions.tsv"
        err = self._exits_3_with_one_line(
            ["classify", *self.SYNTH, "--model", model, "--output", path], capsys
        )
        assert err == f"error: cannot access {path}: No such file or directory\n"
