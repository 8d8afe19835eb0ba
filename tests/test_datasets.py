import numpy as np
import pytest

from tensorgda.datasets import (
    load_image,
    load_manifest,
    load_sequence,
    parse_pgm,
    save_pgm,
    synth_gaussian_classes,
    trim_to_length,
)
from tensorgda.errors import DatasetError, DimensionError, PgmParseError
from tensorgda.evaluation import evaluate_split
from tensorgda.training import TrainingConfig


class TestParsePgm:
    def test_plain_format_definition(self):
        payload = b"P2\n2 2\n255\n0 10 20 30\n"
        img = parse_pgm(payload)
        np.testing.assert_array_equal(img, [[0, 10], [20, 30]])

    def test_p5_and_p2_load_identically(self):
        pixels = bytes([0, 10, 20, 30, 40, 50])
        p5 = b"P5\n3 2\n255\n" + pixels
        p2 = b"P2\n3 2\n255\n0 10 20 30 40 50\n"
        np.testing.assert_array_equal(parse_pgm(p5), parse_pgm(p2))

    def test_comments_in_header(self):
        payload = b"P2 # magic\n# a comment line\n2 1 # dims\n255\n7 9\n"
        np.testing.assert_array_equal(parse_pgm(payload), [[7, 9]])

    def test_bad_magic_reports_offset(self):
        with pytest.raises(PgmParseError) as err:
            parse_pgm(b"P6\n1 1\n255\n\x00")
        assert err.value.offset == 0

    def test_truncated_binary_payload(self):
        with pytest.raises(PgmParseError) as err:
            parse_pgm(b"P5\n2 2\n255\n\x01\x02")
        assert "truncated" in str(err.value)
        assert err.value.offset > 0

    def test_truncated_ascii_payload(self):
        with pytest.raises(PgmParseError):
            parse_pgm(b"P2\n2 2\n255\n1 2 3\n")

    def test_maxval_bounds(self):
        with pytest.raises(PgmParseError):
            parse_pgm(b"P2\n1 1\n65535\n1\n")

    def test_nonnumeric_header(self):
        with pytest.raises(PgmParseError):
            parse_pgm(b"P2\nx 2\n255\n1 2\n")


class TestSaveLoadRoundtrip:
    @pytest.mark.parametrize("binary", [True, False])
    def test_face_sized_roundtrip_is_bit_exact(self, tmp_path, binary):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(112, 92)).astype(np.float64)
        path = tmp_path / "face.pgm"
        save_pgm(path, img, binary=binary)
        np.testing.assert_array_equal(load_image(path), img)

    def test_identical_bytes_identical_tensors(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(8, 6)).astype(np.float64)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_pgm(a, img)
        save_pgm(b, img)
        assert a.read_bytes() == b.read_bytes()
        np.testing.assert_array_equal(load_image(a), load_image(b))

    def test_noninteger_values_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            save_pgm(tmp_path / "x.pgm", np.array([[0.5]]))

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            save_pgm(tmp_path / "x.pgm", np.array([[300.0]]))


def write_frames(directory, frames, names=None):
    directory.mkdir(parents=True, exist_ok=True)
    names = names or [f"f{i:02d}.pgm" for i in range(1, len(frames) + 1)]
    for name, frame in zip(names, frames):
        save_pgm(directory / name, frame)


class TestLoadSequence:
    def test_constant_sequence(self, tmp_path):
        frame = np.full((4, 3), 17.0)
        write_frames(tmp_path / "seq", [frame] * 3)
        seq = load_sequence(tmp_path / "seq")
        assert seq.shape == (4, 3, 3)
        assert np.all(seq == 17.0)

    def test_mismatched_frame_sizes_name_offender(self, tmp_path):
        write_frames(tmp_path / "seq", [np.zeros((4, 3)), np.zeros((3, 3))])
        with pytest.raises(DatasetError, match="f02"):
            load_sequence(tmp_path / "seq")

    def test_lexicographic_order(self, tmp_path):
        frames = [np.full((2, 2), float(i)) for i in range(1, 11)]
        names = [f"f{i:02d}.pgm" for i in range(1, 11)]
        write_frames(tmp_path / "seq", frames, names)
        seq = load_sequence(tmp_path / "seq")
        for i in range(10):
            assert np.all(seq[..., i] == i + 1)

    def test_too_few_frames(self, tmp_path):
        write_frames(tmp_path / "seq", [np.zeros((2, 2))] * 3)
        with pytest.raises(DatasetError):
            load_sequence(tmp_path / "seq", expected_t=5)

    def test_surplus_needs_seed(self, tmp_path):
        write_frames(tmp_path / "seq", [np.zeros((2, 2))] * 5)
        with pytest.raises(DatasetError, match="trim"):
            load_sequence(tmp_path / "seq", expected_t=3)
        seq = load_sequence(tmp_path / "seq", expected_t=3, seed=0)
        assert seq.shape == (2, 2, 3)


class TestTrimToLength:
    def test_exact_length_unchanged(self):
        rng = np.random.default_rng(2)
        seq = rng.random((3, 3, 4))
        np.testing.assert_array_equal(trim_to_length(seq, 4, seed=1), seq)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        seq = rng.random((2, 2, 10))
        a = trim_to_length(seq, 6, seed=5)
        b = trim_to_length(seq, 6, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_result_is_ordered_subsequence(self):
        t_full = 12
        seq = np.arange(t_full, dtype=float).reshape(1, 1, t_full)
        trimmed = trim_to_length(seq, 7, seed=9)
        kept = trimmed.ravel().astype(int).tolist()
        assert kept == sorted(kept)
        assert set(kept) <= set(range(t_full))
        assert len(kept) == 7

    def test_too_short_rejected(self):
        with pytest.raises(DimensionError):
            trim_to_length(np.zeros((2, 2, 3)), 5, seed=0)

    @pytest.mark.parametrize("t", [0, -1])
    def test_length_below_one_rejected(self, t):
        with pytest.raises(DimensionError, match="at least 1"):
            trim_to_length(np.zeros((2, 2, 3)), t, seed=0)


class TestSynthGaussianClasses:
    def test_zero_noise_makes_classes_degenerate(self):
        data = synth_gaussian_classes(3, 4, (4, 3), 5.0, 0.0, seed=4)
        for c in data.classes:
            block = data.samples[..., data.labels == c]
            for i in range(1, block.shape[-1]):
                np.testing.assert_array_equal(block[..., i], block[..., 0])
        report = evaluate_split(
            data, "gda", TrainingConfig(), train_per_class=2, trials=2, seed=5
        )
        assert report.mean_accuracy == 100.0

    def test_zero_separation_is_chance_level(self):
        data = synth_gaussian_classes(10, 10, (4, 4), 0.0, 1.0, seed=6)
        report = evaluate_split(
            data, "hopca", TrainingConfig(), train_per_class=5, trials=10, seed=7
        )
        total = 10 * 50
        band = 2.576 * np.sqrt(0.1 * 0.9 / total) * 100
        assert abs(report.mean_accuracy - 10.0) <= band + 1e-9

    def test_calibrated_separation_beats_raw_nn_threshold(self):
        """Raw-space nearest neighbor is the calibration oracle: at this
        separation it exceeds 95%, so the discriminant methods must too."""
        data = synth_gaussian_classes(10, 10, (8, 8), 8.0, 1.0, seed=8)
        raw = data.samples.reshape(-1, data.n_samples, order="F")
        correct = 0
        total = 0
        rng = np.random.default_rng(9)
        for c in data.classes:
            members = np.flatnonzero(data.labels == c)
            rng.shuffle(members)
        # single split: first five of each class train, rest test
        train_idx, test_idx = [], []
        for c in data.classes:
            members = np.flatnonzero(data.labels == c)
            train_idx.extend(members[:5])
            test_idx.extend(members[5:])
        for i in test_idx:
            distances = np.linalg.norm(
                raw[:, train_idx] - raw[:, i : i + 1], axis=0
            )
            predicted = data.labels[train_idx[int(np.argmin(distances))]]
            correct += int(predicted == data.labels[i])
            total += 1
        assert 100.0 * correct / total >= 95.0
        # the discriminant pipeline must clear the same calibrated bar
        report = evaluate_split(
            data, "gda", TrainingConfig(), train_per_class=5, trials=3, seed=12
        )
        assert report.mean_accuracy >= 95.0

    def test_deterministic(self):
        a = synth_gaussian_classes(3, 4, (3, 3), 2.0, 1.0, seed=10)
        b = synth_gaussian_classes(3, 4, (3, 3), 2.0, 1.0, seed=10)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_subject_structure(self):
        data = synth_gaussian_classes(4, 6, (3, 3), 2.0, 1.0, seed=11)
        assert set(data.subjects.tolist()) == set(range(1, 7))
        for s in range(1, 7):
            assert np.sum(data.subjects == s) == 4  # once per class


class TestManifest:
    def test_images_with_subjects(self, tmp_path):
        rng = np.random.default_rng(12)
        lines = []
        for i in range(4):
            img = rng.integers(0, 256, size=(5, 4)).astype(np.float64)
            name = f"img{i}.pgm"
            save_pgm(tmp_path / name, img)
            lines.append(f"{name}\t{1 + i % 2}\t{1 + i // 2}")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# demo\n" + "\n".join(lines) + "\n")
        data = load_manifest(manifest)
        assert data.n_samples == 4
        assert data.sample_shape == (5, 4)
        np.testing.assert_array_equal(data.labels, [1, 2, 1, 2])
        assert data.subjects is not None

    def test_sequences_with_frames_directive(self, tmp_path):
        rng = np.random.default_rng(13)
        lines = ["@frames 3", "@trim-seed 0"]
        for i in range(2):
            frames = [
                rng.integers(0, 256, size=(4, 3)).astype(np.float64)
                for _ in range(3 + i)  # second sequence has a surplus frame
            ]
            write_frames(tmp_path / f"seq{i}", frames)
            lines.append(f"seq{i}\t{i + 1}\t1")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        data = load_manifest(manifest)
        assert data.sample_shape == (4, 3, 3)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_frames_below_one_is_data_error_naming_the_line(self, tmp_path, value):
        write_frames(tmp_path / "seq", [np.zeros((4, 3))] * 4)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"# short\n@frames {value}\n@trim-seed 1\nseq\t1\n")
        with pytest.raises(DatasetError) as excinfo:
            load_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}:2: @frames {value!r} is not positive"

    def test_shape_mismatch_names_entry(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", np.zeros((3, 3)))
        save_pgm(tmp_path / "b.pgm", np.zeros((4, 3)))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a.pgm\t1\nb.pgm\t2\n")
        with pytest.raises(DatasetError, match="b.pgm"):
            load_manifest(manifest)

    def test_malformed_line_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("only-one-field\n")
        with pytest.raises(DatasetError):
            load_manifest(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# nothing here\n")
        with pytest.raises(DatasetError):
            load_manifest(manifest)
