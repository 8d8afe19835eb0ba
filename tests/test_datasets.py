import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgda import datasets
from tensorgda.datasets import (
    load_image,
    load_manifest,
    load_sequence,
    parse_pgm,
    save_dataset,
    save_pgm,
    synth_gaussian_classes,
    trim_to_length,
)
from tensorgda.errors import DatasetError, DimensionError, PgmParseError, TensorGdaError
from tensorgda.evaluation import evaluate_split
from tensorgda.training import LabeledTensorSet, TrainingConfig


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

    def test_header_larger_than_the_file_fails_at_its_end(self):
        payload = b"P2\n1000000 1000000\n255\n1 2 3\n"
        with pytest.raises(PgmParseError, match="unexpected end of file") as err:
            parse_pgm(payload)
        assert err.value.offset == len(payload)

    @pytest.mark.parametrize("token", [b"-5", b"+1", b"1_0"])
    @pytest.mark.parametrize("field", range(4))
    def test_signed_or_underscored_token_rejected(self, token, field):
        fields = [b"2", b"1", b"255", b"7"]
        fields[field] = token
        payload = b"P2\n" + b" ".join(fields) + b" 9\n"
        what = ["width", "height", "maxval", "pixel"][field]
        with pytest.raises(PgmParseError, match=f"invalid {what}") as err:
            parse_pgm(payload)
        assert err.value.offset == payload.index(token)

    def test_a_long_bad_token_is_quoted_in_part(self):
        with pytest.raises(PgmParseError) as err:
            parse_pgm(b"P2 1 1 255 " + b"x" * 1_000_000)
        assert len(str(err.value)) < 120
        assert "(1000000 bytes)" in str(err.value)

    @pytest.mark.parametrize("field", range(4))
    def test_more_digits_than_int_converts_rejected(self, field):
        fields = [b"1", b"1", b"255", b"7"]
        fields[field] = b"9" * 5000
        with pytest.raises(PgmParseError, match="5000 digits"):
            parse_pgm(b"P2\n" + b" ".join(fields) + b"\n")

    @pytest.mark.parametrize("payload", [
        b" " * 200_000,
        b"#\n" * 100_000,
        b"P2 1 1 255\n" + b"#" * 200_000,
        b"P2 1 1 255" + b" " * 200_000,
    ], ids=["spaces", "comment-lines", "hashes", "spaces-after-header"])
    def test_separator_runs_take_linear_time(self, payload):
        start = time.perf_counter()
        with pytest.raises(PgmParseError):
            parse_pgm(payload)
        assert time.perf_counter() - start < 5.0

    def test_comment_directly_after_a_token_ends_it(self):
        np.testing.assert_array_equal(parse_pgm(b"P2 1 1 255#c\n7#d"), [[7]])

    @pytest.mark.parametrize("header", [
        b"P5\n2 1\n255#c\n\n", b"P5\n2 1\n255#a\n#b\n\t", b"P5\n2 1\n255#\n ",
    ], ids=["one-comment", "two-comments", "empty-comment"])
    def test_comments_after_the_maxval_run_to_their_line_ends(self, header):
        # each comment takes its newline; one whitespace byte then ends the header
        np.testing.assert_array_equal(parse_pgm(header + b"\x01\x02"), [[1, 2]])

    def test_a_hash_after_the_delimiter_is_a_pixel(self):
        np.testing.assert_array_equal(parse_pgm(b"P5\n2 1\n255\n#\x02"), [[35, 2]])

    @pytest.mark.parametrize("payload, offset, problem", [
        (b"P5\n2 1\n255#c\n\x01\x02", 13, r"expected whitespace before the raster, got b'\x01'"),
        (b"P5\n2 1\n255#c\nc\x01\x02", 13, "expected whitespace before the raster, got b'c'"),
        (b"P5\n2 1\n255#\x01\x02", 13, "missing raster"),
        (b"P5\n2 1\n255#c\n", 13, "missing raster"),
    ], ids=["raw-byte", "letter", "comment-to-eof", "nothing-after-comment"])
    def test_no_whitespace_byte_after_a_maxval_comment_rejected(self, payload, offset, problem):
        with pytest.raises(PgmParseError) as err:
            parse_pgm(payload)
        assert (err.value.message, err.value.offset) == (problem, offset)


# what a byte edit of a valid graymap inserts or writes over: separators,
# signs, digits, and tokens that once loaded or crashed
PGM_EDITS = [b" ", b"\n", b"#", b"\t", b"-", b"+", b"_", b"0", b"9", b"x", b"P5", b"\xff",
             b"-5", b"+1", b"1_0", b"256", b"1000000", b"9" * 5000]


@st.composite
def mutated_pgm(draw):
    """A valid P2 or P5 graymap of at most 4x4 pixels, then up to 3 edits,
    each writing one of ``PGM_EDITS`` (or nothing) over 0 to 3 bytes at a
    drawn offset."""
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pixels = draw(st.lists(st.integers(0, 255), min_size=height * width,
                           max_size=height * width))
    maxval = draw(st.sampled_from([max(pixels), 255]))
    if draw(st.booleans()):
        payload = f"P5\n{width} {height}\n{maxval}\n".encode() + bytes(pixels)
    else:
        payload = (f"P2\n# c\n{width} {height}\n{maxval}\n"
                   + " ".join(map(str, pixels)) + "\n").encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(payload)))
        edit = draw(st.sampled_from([b"", *PGM_EDITS]))
        payload = payload[:at] + edit + payload[at + draw(st.integers(0, 3)):]
    return payload


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(mutated_pgm())
def test_parse_pgm_loads_or_raises_its_error(payload):
    try:
        image = parse_pgm(payload)
    except PgmParseError:
        return
    assert image.ndim == 2 and image.dtype == np.float64
    assert image.min() >= 0 and image.max() <= 255


def parse_outcome(payload):
    """What ``parse_pgm`` makes of ``payload``: the pixels, or the message
    and offset of its error."""
    try:
        return parse_pgm(payload).tolist()
    except PgmParseError as exc:
        return exc.message, exc.offset


def cold_outcome(payload, monkeypatch):
    """:func:`parse_outcome` with no P5 header memoized."""
    monkeypatch.setattr(datasets, "_last_p5", (None, 0, 0, 0))
    return parse_outcome(payload)


class TestP5HeaderMemo:
    HEADER = b"P5\n3 2\n200\n"

    def test_a_frame_with_the_last_header_skips_the_scan(self, monkeypatch):
        assert cold_outcome(self.HEADER + bytes(range(6)), monkeypatch) == [[0, 1, 2], [3, 4, 5]]
        assert datasets._last_p5 == (self.HEADER, 3, 2, 200)

        def no_scan(payload):
            raise AssertionError("header scanned again")

        monkeypatch.setattr(datasets, "_scan_header", no_scan)
        assert parse_outcome(self.HEADER + bytes(range(10, 16))) == [[10, 11, 12], [13, 14, 15]]
        # a raster that starts with a whitespace byte: the header still ends at the first
        assert parse_outcome(self.HEADER + b"\n" + bytes(5)) == [[10, 0, 0], [0, 0, 0]]

    @pytest.mark.parametrize("other", [
        b"P5\n2 3\n200\n", b"P5\n3 2\n255\n", b"P5 3 2 200\n", b"P5\n3 2\n200#c\n\n",
        b"P5\n3 2\n20\n", b"P5\n3 2\n2000\n", b"P2\n3 2\n200\n",
    ])
    def test_a_different_header_after_a_memoized_one(self, other, monkeypatch):
        frame = other + (b"1 2 3 4 5 6\n" if other.startswith(b"P2") else bytes(range(1, 7)))
        cold = cold_outcome(frame, monkeypatch)
        parse_pgm(self.HEADER + bytes(6))
        assert parse_outcome(frame) == cold
        if other.startswith(b"P5") and not isinstance(cold, tuple):
            assert datasets._last_p5[0] == other
        elif other.startswith(b"P2"):
            assert datasets._last_p5[0] == self.HEADER  # a plain frame leaves the memo

    def test_a_pixel_beyond_a_memoized_maxval(self, monkeypatch):
        frame = self.HEADER + bytes([0, 1, 2, 201, 4, 5])
        cold = cold_outcome(frame, monkeypatch)
        assert cold == ("pixel exceeds declared maxval", len(frame))
        parse_pgm(self.HEADER + bytes(6))
        assert parse_outcome(frame) == cold

    @pytest.mark.parametrize("kept", [0, 1, 5])
    def test_a_truncated_frame_after_a_memoized_header(self, kept, monkeypatch):
        frame = self.HEADER + bytes(range(kept))
        cold = cold_outcome(frame, monkeypatch)
        assert cold == (f"raster truncated: {kept} of 6 bytes", len(frame))
        parse_pgm(self.HEADER + bytes(6))
        assert parse_outcome(frame) == cold


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutated_pgm(), st.integers(0, 40), st.binary(max_size=12), mutated_pgm())
def test_a_memoized_header_parses_as_a_cold_one(first, cut, tail, other):
    # the second graymap often starts with the first's header
    for second in (first[:cut] + tail, other):
        datasets._last_p5 = (None, 0, 0, 0)
        cold = parse_outcome(second)
        parse_outcome(first)
        assert parse_outcome(second) == cold


class TestSaveLoadRoundtrip:
    def test_face_sized_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(112, 92)).astype(np.float64)
        path = tmp_path / "face.pgm"
        save_pgm(path, img)
        assert path.read_bytes().startswith(b"P5\n92 112\n255\n")
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


def file_bytes(directory):
    """``relative path -> bytes`` of every file under ``directory``."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in directory.rglob("*") if path.is_file()
    }


class TestSaveDataset:
    @pytest.mark.parametrize("shape", [(4, 3), (4, 3, 2)])
    def test_a_full_range_set_round_trips_byte_for_byte(self, tmp_path, shape):
        # integers that already span 0..255 are what the writer's scaling
        # maps to themselves, so rewriting what was read writes the same files
        rng = np.random.default_rng(5)
        samples = rng.integers(0, 256, size=shape + (6,)).astype(np.float64)
        samples.flat[0], samples.flat[-1] = 0.0, 255.0
        data = LabeledTensorSet(samples, [1, 1, 2, 2, 3, 3], [1, 2, 1, 2, 1, 2])
        manifest = save_dataset(data, tmp_path / "a")
        assert manifest == tmp_path / "a" / "manifest.tsv"
        loaded = load_manifest(manifest)
        np.testing.assert_array_equal(loaded.samples, samples)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(loaded.subjects, data.subjects.astype(str))
        save_dataset(loaded, tmp_path / "b")
        written = file_bytes(tmp_path / "a")
        assert len(written) == 1 + 6 * (1 if len(shape) == 2 else shape[-1])
        assert file_bytes(tmp_path / "b") == written

    def test_a_set_without_subjects_lists_two_fields(self, tmp_path):
        data = LabeledTensorSet(np.arange(8.0).reshape(2, 2, 2), [1, 2])
        loaded = load_manifest(save_dataset(data, tmp_path))
        assert loaded.subjects is None
        np.testing.assert_array_equal(loaded.labels, [1, 2])


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

    def test_dangling_and_looping_symlinks_are_skipped(self, tmp_path):
        write_frames(tmp_path / "seq", [np.full((2, 2), 3.0)])
        (tmp_path / "seq" / "f02.pgm").symlink_to(tmp_path / "absent.pgm")
        (tmp_path / "seq" / "f03.pgm").symlink_to(tmp_path / "seq" / "f03.pgm")
        np.testing.assert_array_equal(load_sequence(tmp_path / "seq"), np.full((2, 2, 1), 3.0))

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

    @pytest.mark.parametrize("key", ["frames", "trim-seed"])
    @pytest.mark.parametrize("value", ["+1_0", "1_0", "+3", "\u0663"])
    def test_directive_takes_ascii_digits_only(self, tmp_path, key, value):
        write_frames(tmp_path / "seq", [np.zeros((4, 3))] * 3)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"@{key} {value}\nseq\t1\n", encoding="utf-8")
        with pytest.raises(DatasetError) as excinfo:
            load_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}:1: @{key} {value!r} is not an integer"

    @pytest.mark.parametrize("label", [
        "x", "9223372036854775808", "-9223372036854775809",
        "1_0", " +2", "+2", "2 ", "--2", "\u0663",
    ])
    def test_label_beyond_int64_is_data_error_naming_the_line(self, tmp_path, label):
        save_pgm(tmp_path / "a.pgm", np.zeros((3, 3)))
        save_pgm(tmp_path / "b.pgm", np.ones((3, 3)))
        manifest = tmp_path / "manifest.tsv"
        # the subject column keeps a trailing space inside the label field
        manifest.write_text(f"a.pgm\t1\nb.pgm\t{label}\tx\n", encoding="utf-8")
        with pytest.raises(DatasetError) as excinfo:
            load_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}:2: label {label!r} is not a 64-bit integer"

    def test_root_directive_resolves_later_entries(self, tmp_path):
        (tmp_path / "sub").mkdir()
        save_pgm(tmp_path / "a.pgm", np.zeros((3, 3)))
        save_pgm(tmp_path / "sub" / "a.pgm", np.full((3, 3), 7.0))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a.pgm\t1\n@root sub\na.pgm\t2\n")
        data = load_manifest(manifest)
        np.testing.assert_array_equal(data.samples[..., 0], np.zeros((3, 3)))
        np.testing.assert_array_equal(data.samples[..., 1], np.full((3, 3), 7.0))
        manifest.write_text(f"@root {tmp_path / 'sub'}\na.pgm\t1\n")
        assert load_manifest(manifest).samples.max() == 7.0

    def test_nul_byte_in_a_path_is_data_error(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a\0.pgm\t1\n")
        with pytest.raises(DatasetError, match="cannot read"):
            load_manifest(manifest)

    def test_shape_mismatch_names_entry(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", np.zeros((3, 3)))
        save_pgm(tmp_path / "b.pgm", np.zeros((4, 3)))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a.pgm\t1\nb.pgm\t2\n")
        with pytest.raises(DatasetError, match="b.pgm"):
            load_manifest(manifest)

    @pytest.mark.parametrize("line", ["only-one-field", "a.pgm\t1\t1\textra"])
    def test_malformed_line_rejected(self, tmp_path, line):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"{line}\n")
        message = f"{manifest}:1: expected path<TAB>label[<TAB>subject]"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_manifest(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# nothing here\n")
        with pytest.raises(DatasetError):
            load_manifest(manifest)

    def test_frames_load_bit_for_bit_as_parse_pgm_reads_them(self, tmp_path):
        """Every frame read through ``load_manifest`` equals the frame
        ``parse_pgm`` makes of its bytes: headers spelled several ways, a
        plain frame among binary ones, a subdirectory inside a frame
        directory (skipped) and a symlinked frame (followed)."""
        rng = np.random.default_rng(15)
        height, width, n_frames = 4, 3, 4
        headers = [b"P5\n3 4\n255\n", b"P5 # made by hand\n3   4\n255\n",
                   b"P5\t3\t4 255 ", b"P5\n3 4\n200#max\n\n"]
        lines = ["@frames 4"]
        for s in range(3):
            seq = tmp_path / f"seq{s}"
            seq.mkdir()
            for t in range(n_frames):
                pixels = rng.integers(0, 201, size=(height, width), dtype=np.uint8)
                if s == 1 and t == 2:
                    payload = b"P2\n3 4\n255\n" + " ".join(map(str, pixels.ravel())).encode()
                else:
                    payload = headers[(s + t) % len(headers)] + pixels.tobytes()
                (seq / f"frame_{t}.pgm").write_bytes(payload)
            lines.append(f"seq{s}\t{s + 1}")
        (tmp_path / "seq0" / "frame_1.sub").mkdir()
        save_pgm(tmp_path / "seq0" / "frame_1.sub" / "x.pgm", np.zeros((height, width)))
        (tmp_path / "seq2" / "frame_3.pgm").unlink()
        (tmp_path / "seq2" / "frame_3.pgm").symlink_to(tmp_path / "seq1" / "frame_0.pgm")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")

        expected = np.stack([
            np.stack([parse_pgm((tmp_path / f"seq{s}" / f"frame_{t}.pgm").read_bytes())
                      for t in range(n_frames)], axis=-1)
            for s in range(3)
        ], axis=-1)
        samples = load_manifest(manifest).samples
        assert samples.dtype == expected.dtype and samples.shape == expected.shape
        assert samples.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(samples[..., 3, 2], samples[..., 0, 1])


def sample_major(stack):
    """Whether each sample of ``stack`` (its last axis) is one contiguous block."""
    return np.moveaxis(stack, -1, 0).flags.c_contiguous


def write_frame_manifest(directory, lengths, frames, plain=False):
    """A manifest of one sequence of 4x3 random frames per entry of
    ``lengths``, headed ``@frames frames`` and ``@trim-seed 7``, with P2
    frames when ``plain``; returns it and each sequence's frame paths."""
    rng = np.random.default_rng(16)
    lines, paths = [f"@frames {frames}", "@trim-seed 7"], []
    for s, length in enumerate(lengths):
        seq = directory / f"seq{s}"
        seq.mkdir()
        paths.append([])
        for t in range(length):
            pixels = rng.integers(0, 256, size=(4, 3))
            path = seq / f"frame_{t}.pgm"
            if plain:
                path.write_bytes(b"P2\n3 4\n255\n" + " ".join(map(str, pixels.ravel())).encode())
            else:
                save_pgm(path, pixels)
            paths[-1].append(path)
        lines.append(f"seq{s}\t{s + 1}")
    manifest = directory / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, paths


class TestSampleMajorLayout:
    """Every builder holds each sample, and each frame of a sequence, as
    one contiguous block, with the values of a samples-last stack filled
    one strided sample or frame at a time."""

    @pytest.mark.parametrize("n_classes, per_class, shape", [
        (3, 1, (4, 3)), (2, 3, (5,)), (2, 2, (4, 3, 2)),
    ])
    def test_synth(self, n_classes, per_class, shape):
        data = synth_gaussian_classes(n_classes, per_class, shape, 2.0, 0.5, seed=3)
        rng = np.random.default_rng(3)
        expected = np.empty(shape + (n_classes * per_class,))
        for c in range(n_classes):
            center = 2.0 * rng.standard_normal(shape)
            for s in range(per_class):
                expected[..., c * per_class + s] = center + 0.5 * rng.standard_normal(shape)
        assert sample_major(data.samples)
        assert np.array_equal(data.samples, expected)

    def test_image_manifest(self, tmp_path):
        rng = np.random.default_rng(17)
        lines = []
        for i in range(5):
            save_pgm(tmp_path / f"{i}.pgm", rng.integers(0, 256, size=(4, 3)))
            lines.append(f"{i}.pgm\t{1 + i % 2}")
        (tmp_path / "manifest.tsv").write_text("\n".join(lines) + "\n")
        samples = load_manifest(tmp_path / "manifest.tsv").samples
        expected = np.empty((4, 3, 5))
        for i in range(5):
            expected[..., i] = load_image(tmp_path / f"{i}.pgm")
        assert sample_major(samples)
        assert np.array_equal(samples, expected)

    @pytest.mark.parametrize("plain", [False, True])
    def test_frame_manifest_with_a_trim_seed(self, tmp_path, plain):
        manifest, paths = write_frame_manifest(tmp_path, [3, 5, 4], 3, plain)
        samples = load_manifest(manifest).samples
        expected = np.empty((4, 3, 3, 3))
        for i, frames in enumerate(paths):
            sequence = np.empty((4, 3, len(frames)))
            for t, path in enumerate(frames):
                sequence[..., t] = load_image(path)
            expected[..., i] = trim_to_length(sequence, 3, 7)
        assert sample_major(samples)
        assert np.array_equal(samples, expected)
        assert sample_major(load_sequence(tmp_path / "seq1"))

    def test_each_frame_is_read_once(self, tmp_path, monkeypatch):
        manifest, paths = write_frame_manifest(tmp_path, [4, 4, 4], 4)
        reads = []
        real = datasets.load_image
        monkeypatch.setattr(datasets, "load_image", lambda path: reads.append(path) or real(path))
        assert load_manifest(manifest).n_samples == 3
        assert len(reads) == 3 * 4

    @pytest.mark.parametrize("layout", ["sample-major", "C"])
    def test_a_subset_is_sample_major(self, layout):
        data = synth_gaussian_classes(3, 2, (4, 3), 2.0, 0.5, seed=5)
        if layout == "C":
            data = LabeledTensorSet(np.ascontiguousarray(data.samples), data.labels)
        sub = data.subset([4, 0, 2])
        assert sample_major(sub.samples)
        assert np.array_equal(sub.samples, data.samples[..., [4, 0, 2]])


class TestLoaderMessages:
    """Each error of the manifest loader, word for word."""

    def test_missing_entry(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("absent\t1\n")
        with pytest.raises(DatasetError) as err:
            load_manifest(manifest)
        assert str(err.value) == (
            f"cannot read {tmp_path}/absent: "
            f"[Errno 2] No such file or directory: '{tmp_path}/absent'"
        )

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError) as err:
            load_sequence(tmp_path / "absent")
        assert str(err.value) == f"{tmp_path}/absent is not a directory"

    def test_a_file_is_not_a_directory(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))
        with pytest.raises(DatasetError) as err:
            load_sequence(tmp_path / "a.pgm")
        assert str(err.value) == f"{tmp_path}/a.pgm is not a directory"

    def test_empty_directory(self, tmp_path):
        (tmp_path / "seq").mkdir()
        (tmp_path / "seq" / "sub").mkdir()
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("seq\t1\n")
        with pytest.raises(DatasetError) as err:
            load_manifest(manifest)
        assert str(err.value) == f"{tmp_path}/seq contains no frames"

    def test_frame_of_the_wrong_size(self, tmp_path):
        write_frames(tmp_path / "seq", [np.zeros((4, 3)), np.zeros((3, 3))])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("seq\t1\n")
        with pytest.raises(DatasetError) as err:
            load_manifest(manifest)
        assert str(err.value) == (
            f"frame {tmp_path}/seq/f02.pgm has size (3, 3), expected (4, 3)"
        )

    def test_truncated_frame(self, tmp_path):
        write_frames(tmp_path / "seq", [np.zeros((4, 3))] * 2)
        frame = tmp_path / "seq" / "f02.pgm"
        frame.write_bytes(frame.read_bytes()[:-7])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("seq\t1\n")
        with pytest.raises(PgmParseError) as err:
            load_manifest(manifest)
        assert str(err.value) == (
            f"{frame}: raster truncated: 5 of 12 bytes (byte offset 16)"
        )
        assert err.value.offset == 16

    def test_nul_byte_in_a_path(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a\0.pgm\t1\n")
        with pytest.raises(DatasetError) as err:
            load_manifest(manifest)
        assert str(err.value) == f"cannot read {tmp_path}/a\0.pgm: embedded null byte"

    def test_a_directory_is_not_an_image(self, tmp_path):
        # a directory opens as a descriptor; only its read fails, naming no file
        with pytest.raises(DatasetError) as err:
            load_image(tmp_path)
        assert str(err.value) == (
            f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
        )


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """Graymaps and frame directories for the manifest property: two 4x3
    images, a 3x3 one, a corrupt one, sequences of 3 and 5 frames, one of
    mixed frame sizes, an empty directory, and ``sub`` holding its own
    4x3 ``a.pgm`` and 3-frame ``seq3``."""
    directory = tmp_path_factory.mktemp("manifest")
    rng = np.random.default_rng(14)

    def image(shape=(4, 3)):
        return rng.integers(0, 256, size=shape).astype(np.float64)

    for stem, shape in (("a", (4, 3)), ("b", (4, 3)), ("c", (3, 3))):
        save_pgm(directory / f"{stem}.pgm", image(shape))
    (directory / "bad.pgm").write_bytes(b"P2\n2 2\n255\n1 -2 3\n")
    write_frames(directory / "seq3", [image() for _ in range(3)])
    write_frames(directory / "seq5", [image() for _ in range(5)])
    write_frames(directory / "mixed", [image(), image((3, 3))])
    (directory / "empty").mkdir()
    write_frames(directory / "sub" / "seq3", [image() for _ in range(3)])
    save_pgm(directory / "sub" / "a.pgm", image())
    return directory


MANIFEST_VALUES = ["0", "-1", "1", "3", "5", "x", "", "1.5", "99999999999999999999",
                   "9" * 5000, "sub", "..", "/nonexistent", "a\0b",
                   "+1", "1_0", " 2", "-0", "\u0663"]
MANIFEST_NAMES = ["a.pgm", "b.pgm", "c.pgm", "bad.pgm", "seq3", "seq5", "mixed", "empty",
                  "absent.pgm", "sub", "a\0.pgm", "../manifest"]


@st.composite
def manifest_text(draw):
    """Up to 8 lines: entries of the names above with good and bad labels
    and subjects, ``@frames``, ``@trim-seed`` and ``@root`` directives,
    comments, and malformed lines."""
    value = st.sampled_from(MANIFEST_VALUES)
    entry = st.builds(
        lambda name, label, subject: "\t".join([name, label, *subject]),
        st.sampled_from(MANIFEST_NAMES),
        st.one_of(st.sampled_from(["1", "2", "3"]), value),
        st.lists(st.one_of(st.sampled_from(["1", "2"]), value), max_size=2),
    )
    directive = st.builds(
        "@{} {}".format,
        st.sampled_from(["frames", "trim-seed", "trim_seed", "root", "FRAMES", "bogus"]),
        value,
    )
    junk = st.sampled_from(["# note", "", "only-one-field", "@frames", "\t1"])
    lines = draw(st.lists(st.one_of(entry, entry, directive, junk), max_size=8))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(manifest_text())
def test_load_manifest_loads_or_raises_a_package_error(manifest_dir, text):
    manifest = manifest_dir / "manifest.tsv"
    manifest.write_text(text)
    try:
        data = load_manifest(manifest)
    except TensorGdaError:
        return
    assert isinstance(data, LabeledTensorSet)
    assert data.labels.dtype.kind == "i"
