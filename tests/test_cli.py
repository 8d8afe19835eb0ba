
import base64
import contextlib
import errno
import io
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorgda
from tensorgda import cli, model_io
from tensorgda.cli import (
    build_parser,
    main,
    method_list,
    nonnegative_int,
    read_config_file,
)
from tensorgda.datasets import save_pgm
from tensorgda.errors import ConfigurationError, PgmParseError, TensorGdaError
from tensorgda.model_io import load_model, save_model

from model_files import array_offsets, read_model_file, write_model_file


def run(argv):
    return main([str(a) for a in argv])


# what synth and compress print for a sample they cannot write as files
ORDER4_ERROR = "error: sample files hold order-2 or order-3 samples, got order 4\n"


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
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert again.read_bytes() == model_path.read_bytes()

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

    @pytest.mark.parametrize("method", ["gda", "mda", "hopca"])
    def test_too_many_target_dims_exit_2_with_one_line(self, method, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = run([
            "train", "--synth", "c=3,per_class=4,shape=6x5", "--dims", "2x2x2",
            "--method", method, "--output", path,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: expected 2 target dims, got 3\n"
        assert not path.exists()

    def test_mda_dims_beyond_the_sample_extent_name_no_hosvd_option(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = run([
            "train", "--synth", "c=3,per_class=4,shape=6x5", "--method", "mda",
            "--dims", "7x2", "--output", path,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: target dim 7 exceeds the sample extent 6 of mode 0\n"
        assert not path.exists()

    @pytest.mark.parametrize("method", ["gda", "hopca"])
    def test_ranks_beyond_the_sample_extent_exit_2_with_one_line(self, method, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = run([
            "train", "--synth", "c=3,per_class=4,shape=6x5", "--method", method,
            "--ranks", "7x5", "--output", path,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: HOSVD rank 7 exceeds the sample extent 6 of mode 0\n"
        assert not path.exists()

    def test_fisherface_without_more_samples_than_classes_names_the_cause(self, tmp_path, capsys):
        path = tmp_path / "m.tgda"
        code = run([
            "train", "--method", "fisherface", "--synth", "c=3,per_class=1,shape=4x4",
            "--output", path,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: fisherface needs more samples than classes, "
                       "got 3 samples in 3 classes\n")
        assert not path.exists()

    def test_prints_one_time_line(self, tmp_path, capsys):
        assert run([
            "train", "--synth", "c=3,per_class=4,shape=5x4", "--method", "gda",
            "--output", tmp_path / "m.json",
        ]) == 0
        times = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("time")]
        assert len(times) == 1 and times[0].startswith("time train = ")

    def test_default_output_is_model_tgda(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["train", "--synth", "c=3,per_class=4,shape=5x4"]) == 0
        assert load_model(tmp_path / "model.tgda").kind == "gda"

    def test_synth_source_needs_no_files(self, tmp_path):
        code = run([
            "train", "--synth", "c=3,per_class=4,shape=5x4,separation=6,noise=1",
            "--seed", 2, "--output", tmp_path / "m.json",
        ])
        assert code == 0

    SWEEPS = ["--synth", "c=3,per_class=6,shape=6x5,separation=6,noise=1", "--seed", 3]

    def _warning_lines(self, argv, tmp_path, capsys):
        """The ``warning:`` stdout lines of a train run and its model's warnings."""
        path = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["train", *self.SWEEPS, *argv, "--output", path]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("warning: ")]
        return lines, read_model_file(path)[0]["warnings"]

    def test_sweep_cap_warns_on_stdout_and_in_the_model(self, tmp_path, capsys):
        lines, warnings = self._warning_lines(["--max-iters", 1], tmp_path, capsys)
        [warning] = warnings
        assert lines == [f"warning: {warning}"]
        assert "cap of max_iters = 1" in warning and "conv_tol = 0.001" in warning

    def test_tolerance_stop_gives_no_warning(self, tmp_path, capsys):
        lines, warnings = self._warning_lines([], tmp_path, capsys)
        assert (lines, warnings) == ([], [])


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

    @pytest.mark.parametrize("extra,message", [
        (["--trials", "0", "--train-per-class", "2"], "trials must be at least 1"),
        (["--train-per-class", "4"], "class 1 has 4 samples; need more than 4"),
        (["--train-per-class", "-1"], "train_per_class must be at least 1"),
        (["--train-per-class", "0"], "train_per_class must be at least 1"),
    ])
    def test_rejected_split_exits_2_and_makes_no_directory(self, extra, message, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run([
            "evaluate", "--synth", "c=3,per_class=4,shape=6x5", *extra, "--output-dir", out,
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    LOO = ["evaluate", "--synth", "c=3,per_class=4,shape=6x5", "--protocol", "loo"]

    @pytest.mark.parametrize("extra,named", [
        (["--trials", "-4", "--train-per-class", "99"], "--train-per-class, --trials"),
        (["--trials", "10"], "--trials"),
        (["--train-per-class", "2"], "--train-per-class"),
    ])
    def test_loo_with_a_split_flag_exits_2_naming_it(self, extra, named, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run([*self.LOO, *extra, "--output-dir", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: evaluate --protocol loo takes no {named}\n"
        assert not out.exists()

    def test_loo_counts_a_config_value_as_given_and_loads_no_data(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("trials = 3\n")
        out = tmp_path / "reports"
        code = run([
            "evaluate", "--manifest", tmp_path / "absent.tsv", "--protocol", "loo",
            "--config", config, "--output-dir", out,
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: evaluate --protocol loo takes no --trials\n"
        assert not out.exists()

    def test_unknown_method_exits_2_before_any_work(self, tmp_path):
        out = tmp_path / "reports"
        with pytest.raises(SystemExit) as exc:
            run([
                "evaluate", "--synth", "c=3,per_class=4,shape=6x5", "--method", "gda,bogus",
                "--train-per-class", 2, "--output-dir", out,
            ])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unknown_method_in_a_config_file_exits_2_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("method = gda,bogus\n")
        out = tmp_path / "reports"
        code = run([
            "evaluate", "--manifest", tmp_path / "absent.tsv", "--config", config,
            "--train-per-class", 2, "--output-dir", out,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {config}:1: invalid value 'gda,bogus' for 'method'\n"
        assert not out.exists()

    def test_one_time_line_per_method(self, tmp_path, capsys):
        assert run([
            "evaluate", "--synth", "c=3,per_class=5,shape=5x4", "--method", "gda,pca",
            "--train-per-class", 3, "--trials", 2, "--output-dir", tmp_path,
        ]) == 0
        # trial 1's gda sweeps reach the cap: its warning line sits between
        lines = capsys.readouterr().out.splitlines()
        assert [line[:9] for line in lines] == [
            "gda: mean", "warning: ", "  time = ", "pca: mean", "  time = "]

    @pytest.mark.parametrize("protocol,unit", [
        (["--train-per-class", "3", "--trials", "2"], "trial"),
        (["--protocol", "loo"], "fold"),
    ])
    def test_prints_each_folds_warnings(self, protocol, unit, tmp_path, capsys):
        assert run([
            "evaluate", "--synth", "c=3,per_class=4,shape=6x5", "--method", "gda",
            "--max-iters", 1, *protocol, "--output-dir", tmp_path,
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        warnings = lines[1:-1]
        folds = 2 if unit == "trial" else 4
        assert [line.split(": ", 2)[1] for line in warnings] == [
            f"{unit} {i}" for i in range(folds)]
        assert all(line.startswith("warning: ") and "reached the cap of max_iters = 1" in line
                   for line in warnings)
        assert lines[-1].startswith("  time = ")


class TestCompress:
    def test_ranks_beyond_the_sample_extent_exit_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run([
            "compress", "--synth", "c=3,per_class=4,shape=6x5", "--ranks", "7x5",
            "--output", out,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: HOSVD rank 7 exceeds the sample extent 6 of mode 0\n"
        assert not out.exists()

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


    def test_order4_reconstructions_exit_2_and_write_nothing(self, tmp_path, capsys):
        recon = tmp_path / "recon"
        out = tmp_path / "report.txt"
        code = run([
            "compress", "--synth", "c=2,per_class=3,shape=3x3x2x2",
            "--output", out, "--save-reconstructions", recon,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ORDER4_ERROR
        assert not recon.exists() and not out.exists()


class TestSynth:
    def test_order4_exits_2_and_writes_no_sample(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run(["synth", "--spec", "c=2,per_class=3,shape=3x3x2x2", "--output-dir", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ORDER4_ERROR
        assert not out.exists()


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


    SYNTH = ["--synth", "c=3,per_class=4,shape=6x5"]

    def _model(self, tmp_path):
        path = tmp_path / "m.json"
        assert run(["train", *self.SYNTH, "--output", path]) == 0
        return path

    @pytest.mark.parametrize("flag,value", [
        ("--method", "gda"), ("--theta", "5"), ("--ranks", "2x2"), ("--dims", "99x99"),
        ("--max-iters", "-3"), ("--conv-tol", "0.1"), ("--ridge", "0.1"),
        ("--pca-dims", "2"), ("--fisher-pca-dims", "2"), ("--fisher-lda-dims", "1"),
    ])
    def test_model_with_a_training_flag_exits_2_naming_it(self, flag, value, tmp_path, capsys):
        model, out = self._model(tmp_path), tmp_path / "proj.csv"
        capsys.readouterr()
        code = run(["visualize", *self.SYNTH, "--model", model, flag, value, "--output", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: visualize --model takes no {flag}\n"
        assert not out.exists()

    def test_model_names_every_training_flag_given(self, tmp_path, capsys):
        model, out = self._model(tmp_path), tmp_path / "proj.csv"
        capsys.readouterr()
        code = run([
            "visualize", *self.SYNTH, "--model", model, "--theta", 5, "--max-iters", -3,
            "--dims", "99x99", "--method", "gda", "--output", out,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: visualize --model takes no --theta, --dims, --max-iters, --method\n"
        assert not out.exists()

    def test_model_with_an_unknown_method_exits_2(self, tmp_path):
        model, out = self._model(tmp_path), tmp_path / "proj.csv"
        with pytest.raises(SystemExit) as exc:
            run([
                "visualize", *self.SYNTH, "--model", model, "--theta", 5, "--max-iters", -3,
                "--dims", "99x99", "--method", "bogus", "--output", out,
            ])
        assert exc.value.code == 2
        assert not out.exists()

    def test_model_counts_a_config_value_as_given(self, tmp_path, capsys):
        model, out = self._model(tmp_path), tmp_path / "proj.csv"
        config = tmp_path / "run.conf"
        config.write_text("dims = 2x2\n")
        capsys.readouterr()
        code = run([
            "visualize", *self.SYNTH, "--config", config, "--model", model, "--output", out,
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: visualize --model takes no --dims\n"
        assert not out.exists()


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


# the parser of each subcommand, by name
COMMANDS = build_parser().get_default("commands")
# training flags that classify and compress once accepted and ignored
TRAINING_ONLY = ["--dims", "--max-iters", "--conv-tol", "--ridge", "--pca-dims",
                 "--fisher-pca-dims", "--fisher-lda-dims"]


class TestFlagsPerSubcommand:
    def _long_flags(self, command):
        return {
            flag for action in COMMANDS[command]._actions
            for flag in action.option_strings if flag.startswith("--")
        } - {"--help"}

    def test_classify_and_compress_take_only_the_flags_they_read(self):
        data = {"--manifest", "--synth", "--config", "--seed"}
        assert self._long_flags("classify") == data | {"--model", "--output"}
        assert self._long_flags("compress") == data | {
            "--theta", "--ranks", "--pca-components", "--output", "--save-reconstructions",
        }

    @pytest.mark.parametrize("command,flag", [
        *(("classify", flag) for flag in ["--theta", "--ranks", *TRAINING_ONLY]),
        *(("compress", flag) for flag in TRAINING_ONLY),
    ])
    def test_a_flag_the_command_does_not_read_exits_2(self, command, flag, tmp_path):
        argv = [command, "--synth", "c=2,per_class=3,shape=3x3", flag, "1"]
        if command == "classify":
            argv += ["--model", tmp_path / "m.json"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


class TestConfigKeys:
    """Every long flag of a subcommand is a config-file key for it, read with
    the flag's own type and choices, except ``--config`` itself and the
    required flags (classify's ``--model``, synth's ``--spec`` and
    ``--output-dir``), which argparse demands on the command line."""

    def _read(self, command, line, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(line + "\n")
        return read_config_file(path, command, COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_flag_is_a_key_with_its_type_and_choices(self, command, tmp_path):
        for action in COMMANDS[command]._actions:
            for flag in action.option_strings:
                if not flag.startswith("--") or flag in ("--help", "--config"):
                    continue
                key = flag[2:]
                if action.required:
                    with contextlib.suppress(ConfigurationError):
                        assert action.dest not in self._read(command, f"{key} = x", tmp_path)
                    continue
                if action.choices is not None:
                    text = action.choices[-1]
                else:
                    text = {int: "7", float: "0.5", None: "a,b",
                            nonnegative_int: "7", method_list: "pca"}[action.type]
                expected = (action.type or str)(text)
                values = self._read(command, f"{key.replace('-', '_')} = {text}", tmp_path)
                assert values == {action.dest: expected}
                if action.type is not None or action.choices is not None:
                    with pytest.raises(ConfigurationError, match=key):
                        self._read(command, f"{key} = bogus", tmp_path)

    def test_one_file_serves_train_and_classify(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            "synth = c=3,per_class=4,shape=4x4,separation=6,noise=1\n"
            "method = hopca\ndims = 2x2\ntrials = 3\nplane = 1x2\n"
        )
        model_path = tmp_path / "m.json"
        assert run(["train", "--config", config, "--output", model_path]) == 0
        model = load_model(model_path)
        assert (model.kind, model.projected_shape) == ("hopca", (2, 2))
        assert run(["classify", "--config", config, "--model", model_path]) == 0
        assert "accuracy = 100.00%" in capsys.readouterr().out


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

    def test_image_header_larger_than_the_file_is_data_error(self, tmp_path, capsys):
        image = tmp_path / "huge.pgm"
        image.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("huge.pgm\t1\n")
        code = run([
            "train", "--manifest", manifest, "--output", tmp_path / "m.json",
        ])
        assert code == 3
        offset = len(image.read_bytes())
        assert capsys.readouterr().err == (
            f"error: {image}: unexpected end of file (byte offset {offset})\n"
        )

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

    @pytest.mark.parametrize("spec,named", [
        ("c=2,per_class=x", "per_class"),
        ("c=0", "one class"),
        ("per_class=0", "one sample per class"),
        ("noise=nan", "noise"),
        ("separation=inf", "separation"),
    ])
    def test_non_integer_synth_value_is_usage_error(self, spec, named, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = run(["train", "--synth", f"{spec},shape=3x3", "--output", path])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

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

    def test_negative_trim_seed_is_data_error_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "seq").mkdir()
        for i in range(4):  # one surplus frame, so the seed is used
            save_pgm(tmp_path / "seq" / f"f{i}.pgm", np.full((4, 3), float(i)))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("@frames 3\n@trim-seed -1\nseq\t1\n")
        code = run([
            "train", "--manifest", manifest, "--output", tmp_path / "m.json",
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: {manifest}:2: @trim-seed '-1' is negative\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_frames_below_one_is_data_error_naming_the_line(self, tmp_path, capsys, value):
        (tmp_path / "seq").mkdir()
        for i in range(4):
            save_pgm(tmp_path / "seq" / f"f{i}.pgm", np.full((4, 3), float(i)))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"@frames {value}\n@trim-seed 1\nseq\t1\n")
        code = run([
            "train", "--manifest", manifest, "--output", tmp_path / "m.json",
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: {manifest}:1: @frames {value!r} is not positive\n"

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
        assert not (tmp_path / "model.tgda").exists()

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


def _drop_gallery(doc, payload):
    del doc["gallery"]


def _short_payload(doc, payload):
    del payload[-8:]


def _trailing_bytes(doc, payload):
    payload += bytes(8)


def _shape_beyond_the_file(doc, payload):
    doc["gallery"]["shape"][0] = 2**62


def _version_4_data_key(doc, payload):
    doc["gallery"]["data"] = ""


def _buffer_misfits_shape(doc, payload):
    rows, cols = doc["combined"][0]["shape"]
    doc["combined"][0]["shape"] = [rows + 1, cols]


def _unknown_kind(doc, payload):
    doc["kind"] = "lda"


def _config_lacks_key(doc, payload):
    del doc["config"]["ridge"]


def _config_unknown_key(doc, payload):
    doc["config"]["frobnicate"] = 1


def _transposed_sample_shape(doc, payload):
    doc["sample_shape"] = doc["sample_shape"][::-1]


def _string_objective_trace(doc, payload):
    doc["objective_trace"] = "abc"


def _infinite_hosvd_rank(doc, payload):
    doc["hosvd_ranks"][0] = math.inf


def _string_target_dims(doc, payload):
    doc["config"]["target_dims"] = "1x1"


def _scalar_sample_shape(doc, payload):
    doc["sample_shape"] = 30


def _scalar_warnings(doc, payload):
    doc["warnings"] = 1


def _string_gallery_labels(doc, payload):
    doc["gallery_labels"] = "12"


def _gallery_label(value):
    """A corrupter that sets the first gallery label to ``value``."""
    def corrupt(doc, payload):
        doc["gallery_labels"][0] = value
    return corrupt


def _non_finite(key, value):
    """A corrupter that sets the first entry of array ``key`` (of the first
    projector, for ``combined``) to ``value``."""
    def corrupt(doc, payload):
        offset = array_offsets(doc)[key]
        payload[offset:offset + 8] = np.array([value], "<f8").tobytes()
    return corrupt


class TestBadModelFile:
    SYNTH = ["--synth", "c=2,per_class=4,shape=6x5,separation=6,noise=1"]

    @pytest.mark.parametrize("corrupt", [
        _drop_gallery,
        _short_payload,
        _trailing_bytes,
        _shape_beyond_the_file,
        _version_4_data_key,
        _buffer_misfits_shape,
        _unknown_kind,
        _config_lacks_key,
        _config_unknown_key,
        _transposed_sample_shape,
    ])
    def test_exits_3_with_one_line(self, corrupt, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert run(["train", *self.SYNTH, "--output", path]) == 0
        doc, payload = read_model_file(path)
        corrupt(doc, payload)
        write_model_file(path, doc, payload)
        capsys.readouterr()
        code = run(["classify", *self.SYNTH, "--model", path])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {path} is not a valid model")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method,corrupt,key", [
        ("gda", _string_objective_trace, "objective_trace"),
        ("gda", _infinite_hosvd_rank, "hosvd_ranks"),
        ("gda", _string_target_dims, "target_dims"),
        ("gda", _scalar_sample_shape, "sample_shape"),
        ("gda", _scalar_warnings, "warnings"),
        ("gda", _string_gallery_labels, "gallery_labels"),
        ("gda", _gallery_label(2**63), "gallery_labels"),
        ("gda", _gallery_label(2**70), "gallery_labels"),
        ("gda", _gallery_label(-2**63 - 1), "gallery_labels"),
        ("gda", _non_finite("gallery", math.nan), "gallery"),
        ("hopca", _non_finite("gallery", -math.inf), "gallery"),
        ("gda", _non_finite("combined", math.nan), "combined"),
        ("fisherface", _non_finite("combined", math.inf), "combined"),
    ])
    def test_exits_3_naming_the_key(self, method, corrupt, key, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert run(["train", *self.SYNTH, "--method", method, "--output", path]) == 0
        doc, payload = read_model_file(path)
        corrupt(doc, payload)
        write_model_file(path, doc, payload)
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
        doc, payload = read_model_file(path)
        update(doc, payload)
        write_model_file(path, doc)
        capsys.readouterr()
        code = run(["classify", *self.SYNTH, "--model", path])
        assert code == 3
        return capsys.readouterr().err.replace(str(path), "MODEL")

    def test_version_1_model_exits_3_with_one_line(self, tmp_path, capsys):
        def v1(doc, payload):
            doc.update(version=1, vectorized=False, hosvd_factors=[], disc_factors=[])
            doc["config"].update(seed=0, gram_crossover=32768)

        err = self._version_error(v1, tmp_path, capsys)
        assert err == "error: MODEL has model version 1, expected 10\n"

    def test_version_2_model_exits_3_with_one_line(self, tmp_path, capsys):
        def v2(doc, payload):
            doc.update(version=2, vectorized=False, hosvd_factors=[], disc_factors=[])

        err = self._version_error(v2, tmp_path, capsys)
        assert err == "error: MODEL has model version 2, expected 10\n"

    def test_version_3_model_exits_3_with_one_line(self, tmp_path, capsys):
        # same keys as version 4; its conv_tol bounded the U @ U.T change
        err = self._version_error(lambda doc, _: doc.update(version=3), tmp_path, capsys)
        assert err == "error: MODEL has model version 3, expected 10\n"

    def test_version_4_model_exits_3_with_one_line(self, tmp_path, capsys):
        def v4(doc, payload):
            # one JSON document: each array object held its bytes as base64
            offset = 0
            for blob in [*doc["combined"], doc["gallery"]]:
                size = 8 * math.prod(blob["shape"])
                blob["data"] = base64.b64encode(payload[offset:offset + size]).decode("ascii")
                offset += size
            doc["version"] = 4

        err = self._version_error(v4, tmp_path, capsys)
        assert err == "error: MODEL has model version 4, expected 10\n"

    def test_version_5_model_exits_3_with_one_line(self, tmp_path, capsys):
        # version 5 also stored a mean vector, null for the multilinear kinds
        def v5(doc, payload):
            doc.update(version=5, mean_vector=None)

        err = self._version_error(v5, tmp_path, capsys)
        assert err == "error: MODEL has model version 5, expected 10\n"

    def test_version_6_model_exits_3_with_one_line(self, tmp_path, capsys):
        # same keys as version 10; its core and scatters rounded differently
        err = self._version_error(lambda doc, _: doc.update(version=6), tmp_path, capsys)
        assert err == "error: MODEL has model version 6, expected 10\n"

    def test_version_7_model_exits_3_with_one_line(self, tmp_path, capsys):
        # same keys as version 10; its mda global mean was summed in the stack's layout
        err = self._version_error(lambda doc, _: doc.update(version=7), tmp_path, capsys)
        assert err == "error: MODEL has model version 7, expected 10\n"

    def test_version_8_model_exits_3_with_one_line(self, tmp_path, capsys):
        # same keys as version 10; its gallery was projected_shape + (n,),
        # one entry per index of the last axis
        def v8(doc, payload):
            n, _ = doc["gallery"]["shape"]
            doc["gallery"]["shape"] = [blob["shape"][1] for blob in doc["combined"]] + [n]
            doc["version"] = 8

        err = self._version_error(v8, tmp_path, capsys)
        assert err == "error: MODEL has model version 8, expected 10\n"

    def test_version_9_model_exits_3_with_one_line(self, tmp_path, capsys):
        # same keys as version 10; its per-sample products copied each
        # unfolding, which rounds differently where a projected dim is 1
        err = self._version_error(lambda doc, _: doc.update(version=9), tmp_path, capsys)
        assert err == "error: MODEL has model version 9, expected 10\n"

    def test_string_version_is_quoted(self, tmp_path, capsys):
        err = self._version_error(lambda doc, _: doc.update(version="10"), tmp_path, capsys)
        assert err == "error: MODEL has model version '10', expected 10\n"


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

    @pytest.mark.parametrize("method", ["gda", "fisherface"])
    def test_overflowing_ridge_exits_4_with_one_line_and_writes_nothing(
        self, method, tmp_path, capsys
    ):
        path = tmp_path / "m.json"
        code = run(["train", "--synth", "c=3,per_class=4,shape=6x5", "--method", method,
                    "--ridge", "1e308", "--output", path])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and "ridge 1e+308" in err
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


class TestSeed:
    SYNTH = ["--synth", "c=2,per_class=3,shape=3x3"]

    @pytest.mark.parametrize("argv", [
        ["train", *SYNTH, "--seed", -1],
        ["evaluate", *SYNTH, "--protocol", "loo", "--seed", -1],
        ["synth", "--spec", SYNTH[1], "--seed", -1, "--output-dir", "never"],
    ])
    def test_negative_seed_exits_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_negative_seed_in_a_config_file_exits_2_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("seed = -1\n")
        code = run(["train", *self.SYNTH, "--config", config, "--output", tmp_path / "m.json"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}:1: invalid value '-1' for 'seed'\n"


# the directory holding the tensorgda package, for the CLI in a subprocess
SRC = Path(tensorgda.__file__).resolve().parents[1]


def run_script(argv, cwd, command=("-m", "tensorgda.cli"), preexec_fn=None):
    """The finished ``python -m tensorgda.cli argv`` run, in a fresh
    interpreter so that nothing hides numpy's warnings from its stderr;
    ``preexec_fn`` runs in the child before it starts."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *command, *map(str, argv)], cwd=cwd, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        preexec_fn=preexec_fn,
    )


def test_a_closed_stdout_ends_without_a_message(tmp_path):
    # 12,000 prediction lines overfill the pipe, so the reader is gone by
    # the time most of them are written
    assert run(["train", "--synth", "c=3,per_class=4,shape=6x5", "--output", tmp_path / "m"]) == 0
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "tensorgda.cli", "classify", "--synth",
         "c=3,per_class=4000,shape=6x5", "--model", str(tmp_path / "m")],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    ) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=300)
    assert first == b"index\tpredicted\tdistance\ttruth\n"
    assert (status, err) == (141, b"")  # 128 + SIGPIPE, as the README says


def test_an_interrupt_ends_with_one_line(tmp_path):
    # the timer starts once the imports are done, so SIGINT lands inside the
    # evaluation, which 10^8 trials keep busy for far longer than a second
    script = (
        "import os, signal, sys, threading\n"
        "from tensorgda.cli import main\n"
        "threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["evaluate", "--synth", "c=3,per_class=4,shape=6x5", "--train-per-class", "2",
            "--trials", "100000000", "--output-dir", tmp_path / "r"]
    result = run_script(argv, tmp_path, command=("-c", script))
    assert (result.returncode, result.stderr) == (130, "error: interrupted\n")  # 128 + SIGINT
    assert not (tmp_path / "r").exists()


class NoSpaceLeft:
    """A file opened for writing whose every write fails as on a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


@pytest.mark.parametrize(
    "command", ["train", "classify", "evaluate", "visualize", "synth", "compress"])
def test_a_failed_write_names_its_path(command, tmp_path, monkeypatch, capsys):
    synth = ["--synth", "c=3,per_class=4,shape=6x5"]
    model = tmp_path / "m.tgda"
    assert run(["train", *synth, "--output", model]) == 0
    argv, path = {
        "train": (["train", *synth, "--output", tmp_path / "n.tgda"], tmp_path / "n.tgda"),
        "classify": (["classify", *synth, "--model", model, "--output", tmp_path / "p.tsv"],
                     tmp_path / "p.tsv"),
        "evaluate": (["evaluate", *synth, "--train-per-class", "2", "--trials", "1",
                      "--output-dir", tmp_path / "r"], tmp_path / "r" / "report_split_gda.txt"),
        "visualize": (["visualize", *synth, "--output", tmp_path / "v.csv"], tmp_path / "v.csv"),
        "synth": (["synth", "--spec", synth[1], "--output-dir", tmp_path / "s"],
                  tmp_path / "s" / "sample_0000.pgm"),
        "compress": (["compress", *synth, "--theta", "0.9", "--save-reconstructions",
                      tmp_path / "c"], tmp_path / "c" / "hopca_0000.pgm"),
    }[command]

    def full_disk_open(file, mode="r", **kwargs):
        handle = open(file, mode, **kwargs)
        return NoSpaceLeft(handle) if "w" in mode else handle

    monkeypatch.setattr(model_io, "open", full_disk_open, raising=False)
    capsys.readouterr()
    assert run(argv) == 3
    assert capsys.readouterr().err == f"error: cannot write {path}: No space left on device\n"


class TestOverflow:
    SYNTH = ["--synth", "c=3,per_class=4,shape=6x5,separation=1e300"]

    @pytest.mark.parametrize("argv,message", [
        (["train", *SYNTH, "--output", "m.json"], "error: s_b contains non-finite entries\n"),
        (["compress", *SYNTH], "error: mean squared error inf is not finite\n"),
    ])
    def test_prints_only_the_error_line(self, argv, message, tmp_path):
        done = run_script(argv, tmp_path)
        assert (done.returncode, done.stderr) == (4, message)
        assert not (tmp_path / "m.json").exists()

    def test_neither_import_nor_main_changes_numpy_error_state(self, tmp_path):
        done = run_script([], tmp_path, command=("-c", (
            "import numpy as np; before = np.geterr(); import tensorgda.cli as cli\n"
            "assert np.geterr() == before\n"
            "code = cli.main(['train', '--synth', 'c=3,per_class=4,shape=6x5,"
            "separation=1e300', '--output', 'm.json'])\n"
            "assert (code, np.geterr()) == (4, before)\n"
        )))
        assert done.returncode == 0, done.stderr


def _limit_address_space():
    """Cap this process's address space at 1 GiB, so an oversize request
    fails the same way whatever the host's overcommit policy."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("synth", [
    "c=2,per_class=2,shape=200000x200000",
    "c=100000,per_class=100000,shape=2x2",
])
def test_out_of_memory_exits_3_with_one_line(synth, tmp_path):
    done = run_script(["train", "--synth", synth], tmp_path, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: out of memory: ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_exit_codes() -> dict:
    """``error class name -> exit code`` as the README's exit-code list
    gives them: items like ``- `3` (`DatasetError`, ...): ...``."""
    codes = {}
    for item in re.finditer(r"^- `(\d)` \(([^)]*)\)", README.read_text(), re.MULTILINE):
        for name in re.findall(r"`(\w+)`", item.group(2)):
            codes[name] = int(item.group(1))
    return codes


EXPORTED_ERRORS = {
    name: value for name, value in vars(tensorgda).items()
    if name in tensorgda.__all__ and isinstance(value, type)
    and issubclass(value, TensorGdaError)
}


def test_readme_lists_every_exported_error_class():
    assert set(readme_exit_codes()) == set(EXPORTED_ERRORS)


@pytest.mark.parametrize("name", sorted(EXPORTED_ERRORS))
def test_each_error_class_exits_with_its_readme_code(name, tmp_path, monkeypatch, capsys):
    cls = EXPORTED_ERRORS[name]
    error = cls("boom", 7) if cls is PgmParseError else cls("boom")

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "load_data", fail)
    code = run(["train", "--synth", "c=2,per_class=3,shape=3x3", "--output", tmp_path / "m"])
    assert code == cls.exit_code == readme_exit_codes()[name]
    assert capsys.readouterr().err == f"error: {error}\n"


# argv fragments for the property below: a valid base spec with at most one
# bad field, and flags of the subcommand with values its types may or may
# not read; paths stay in a scratch directory
FUZZ_SPEC = "c=3,per_class=4,shape=6x5"
FUZZ_BAD_FIELDS = ["c=0", "shape=0x3", "shape=2x2x2x2", "separation=1e300",
                   "separation=nan", "noise=inf"]
FUZZ_VALUES = ["0", "-1", "2.5", "nan", "inf", "x", "99x99", "bogus",
               "1", "2", "0.5", "2x2", "gda", "loo"]
PATH_FLAGS = {"--help", "--config", "--manifest", "--synth", "--model", "--output",
              "--output-dir", "--save-reconstructions"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with a trained model for classify and visualize."""
    directory = tmp_path_factory.mktemp("fuzz")
    assert main(["train", "--synth", FUZZ_SPEC, "--output", str(directory / "model.json")]) == 0
    return directory


@st.composite
def fuzz_argv(draw):
    """``(argv without paths, whether to pass --model)``."""
    command = draw(st.sampled_from(["train", "evaluate", "compress", "visualize", "classify"]))
    own = sorted(
        flag for action in COMMANDS[command]._actions for flag in action.option_strings
        if flag.startswith("--") and flag not in PATH_FLAGS
    )
    bad_field = draw(st.one_of(st.none(), st.sampled_from(FUZZ_BAD_FIELDS)))
    spec = FUZZ_SPEC if bad_field is None else f"{FUZZ_SPEC},{bad_field}"
    flags = draw(st.lists(st.tuples(st.sampled_from(own), st.sampled_from(FUZZ_VALUES)),
                          max_size=4))
    model = command == "classify" or (command == "visualize" and draw(st.booleans()))
    return [command, "--synth", spec, *(part for flag in flags for part in flag)], model


def assert_documented_exit(code, stderr):
    """``main`` returned 0 with nothing on stderr, or 2, 3 or 4 with one
    ``error:`` line."""
    assert code in (0, 2, 3, 4)
    if code:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
    else:
        assert stderr == ""


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(fuzz_argv())
def test_main_exits_with_a_documented_code_and_one_line(fuzz_dir, case):
    """``main`` returns 0, 2, 3 or 4, or argparse exits 2; no other exception
    escapes, and a failing return leaves exactly one stderr line."""
    argv, model = case
    command = argv[0]
    argv = argv + {
        "train": ["--output", str(fuzz_dir / "m.json")],
        "evaluate": ["--output-dir", str(fuzz_dir / "reports")],
        "compress": ["--output", str(fuzz_dir / "report.txt")],
        "visualize": ["--output", str(fuzz_dir / "projection.csv")],
        "classify": ["--output", str(fuzz_dir / "predictions.tsv")],
    }[command]
    if model:
        argv += ["--model", str(fuzz_dir / "model.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2
            return
    assert_documented_exit(code, err.getvalue())


# config-file lines for the property below: every key a config file may
# set (paths excepted), with values of every flag type, plus keys no
# subcommand takes and malformed lines
CONFIG_KEYS = sorted(
    {flag[2:] for sub in COMMANDS.values() for flag in cli.config_flags(sub)}
    - {flag[2:] for flag in PATH_FLAGS}
)
CONFIG_VALUES = FUZZ_VALUES + ["", "1e999", "-0", "9" * 5000, "gda,mda", "gda,lda", "2x2x2",
                               "0x2", "1 2", "split", "pair", "1x2"]


@st.composite
def config_file(draw):
    """``(subcommand, config text)``: up to 5 lines of the keys above,
    each written with dashes or underscores, and malformed lines."""
    key = st.builds(
        lambda name, underscores: name.replace("-", "_") if underscores else name,
        st.sampled_from(CONFIG_KEYS + ["frobnicate"]), st.booleans(),
    )
    line = st.one_of(
        st.builds("{} = {}".format, key, st.sampled_from(CONFIG_VALUES)),
        st.sampled_from(["# note", "", "no equals sign", "= 1", "seed=1=2"]),
    )
    command = draw(st.sampled_from(["train", "evaluate", "compress", "visualize", "classify"]))
    return command, "\n".join(draw(st.lists(line, max_size=5))) + "\n"


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(config_file())
def test_config_file_exits_with_a_documented_code_and_one_line(fuzz_dir, case):
    """A config file of any lines drives ``main`` to 0, 2, 3 or 4, with one
    stderr line on failure."""
    command, text = case
    config = fuzz_dir / "run.conf"
    config.write_text(text)
    output = "--output-dir" if command == "evaluate" else "--output"
    argv = [command, "--synth", FUZZ_SPEC, "--config", str(config),
            output, str(fuzz_dir / f"{command}.out")]
    if command == "classify":
        argv += ["--model", str(fuzz_dir / "model.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert_documented_exit(code, err.getvalue())
