import json
import stat
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pseudoradar.errors import FormatError, ParseError, SchemaError
from pseudoradar.pointcloud import (COMPACT_MAGIC, PointCloudFrame, atomic_write_bytes,
                                    atomic_write_text, load_corpus, read_frame_bin,
                                    read_frame_csv, read_frame_nuscenes_bin, write_corpus,
                                    write_frame_bin, write_frame_csv)


def random_frame(n=100, seed=0, velocity=False, frame_id="f0", timestamp=1.5):
    rng = np.random.default_rng(seed)
    vel = rng.normal(size=(n, 2)) if velocity else None
    return PointCloudFrame(frame_id, timestamp, rng.normal(size=(n, 3)) * 20,
                           rng.uniform(0, 30, n), vel)


class TestFrame:
    def test_intensity_must_be_non_negative(self):
        with pytest.raises(ValueError):
            PointCloudFrame("f", 0.0, np.zeros((1, 3)), np.array([-1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloudFrame("f", 0.0, np.array([[np.nan, 0, 0]]), np.array([1.0]))

    def test_arrays_are_read_only(self):
        frame = random_frame(5)
        with pytest.raises(ValueError):
            frame.xyz[0, 0] = 9.0


class TestCsv:
    def test_roundtrip_is_lossless(self, tmp_path):
        frame = random_frame(100, seed=3)
        path = tmp_path / "f0.csv"
        write_frame_csv(frame, path)
        back = read_frame_csv(path, frame_id="f0", timestamp=1.5)
        assert np.array_equal(back.xyz, frame.xyz)
        assert np.array_equal(back.intensity, frame.intensity)
        assert back.velocity is None

    def test_roundtrip_with_velocity(self, tmp_path):
        frame = random_frame(40, seed=4, velocity=True)
        path = tmp_path / "v.csv"
        write_frame_csv(frame, path)
        back = read_frame_csv(path)
        assert np.array_equal(back.velocity, frame.velocity)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x,y,z,intensity\n")
        assert read_frame_csv(path).n_points == 0

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z,intensity\n1,2,3,notanumber\n")
        with pytest.raises(ParseError, match="line 2"):
            read_frame_csv(path)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(SchemaError):
            read_frame_csv(path)

    def test_wrong_width_row(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x,y,z,intensity\n1,2,3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_frame_csv(path)

    def test_arbitrary_bytes_raise_typed_errors(self, tmp_path):
        rng = np.random.default_rng(6)
        for n in (1, 3, 64, 257):
            path = tmp_path / f"junk{n}.csv"
            path.write_bytes(bytes(rng.integers(0, 256, n, dtype=np.uint8)))
            with pytest.raises((ParseError, SchemaError)):
                read_frame_csv(path)

    def test_negative_intensity_rejected_as_schema_error(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("x,y,z,intensity\n1,2,3,-4\n")
        with pytest.raises(SchemaError):
            read_frame_csv(path)

    @pytest.mark.parametrize("velocity", [False, True])
    def test_writer_bytes_match_the_per_point_loop(self, tmp_path, velocity):
        special = np.array([-0.0, 0.0, 1e-5, 1e16, 5e-324, -1e16, 0.1, 1 / 3])
        frame = random_frame(60, seed=8, velocity=velocity)
        xyz = frame.xyz.copy()
        xyz[:len(special)] = special[:, None]
        vel = None if frame.velocity is None else frame.velocity.copy()
        if vel is not None:
            vel[:len(special)] = special[::-1, None]
        frame = PointCloudFrame("f", 0.0, xyz, np.abs(special[np.arange(60) % 8]), vel)
        # the writer as it was: repr of each value, one point at a time
        lines = ["x,y,z,intensity,vx,vy" if velocity else "x,y,z,intensity"]
        for i in range(frame.n_points):
            x, y, z = frame.xyz[i]
            cols = [repr(float(x)), repr(float(y)), repr(float(z)),
                    repr(float(frame.intensity[i]))]
            if velocity:
                cols += [repr(float(frame.velocity[i, 0])), repr(float(frame.velocity[i, 1]))]
            lines.append(",".join(cols))
        write_frame_csv(frame, tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x,y,z,intensity\n\n1,2,3,4\n   \n5,6,7,8\n\n")
        assert read_frame_csv(path).xyz.tolist() == [[1, 2, 3], [5, 6, 7]]

    def test_values_the_table_parser_rejects_parse_as_before(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("x,y,z,intensity\n1_000,2,3,4\n")
        assert read_frame_csv(path).xyz.tolist() == [[1000, 2, 3]]

    @pytest.mark.parametrize("body, line", [("1,2,3,4\n# note\n", 3),
                                            ("1,2,3,4\n5,6,7\n", 3),
                                            ("1,2,3\n5,6,7\n", 2),
                                            ("1,2,3,4\n\n1,2,3,4,5\n", 4)])
    def test_bad_row_reports_its_line(self, tmp_path, body, line):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z,intensity\n" + body)
        with pytest.raises(ParseError, match=f"line {line}:"):
            read_frame_csv(path)

    def test_non_utf8_body_is_parse_error(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_bytes(b"x,y,z,intensity\n1,2,3,4\n1,2,3,\xff\n")
        with pytest.raises(ParseError, match="UTF-8"):
            read_frame_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "x,y,z,i\n1,2,3,4\n"])
    def test_missing_or_bad_header_is_schema_error(self, tmp_path, text):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(SchemaError):
            read_frame_csv(path)


class TestNuscenesBin:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "0.bin"
        path.write_bytes(b"")
        assert read_frame_nuscenes_bin(path).n_points == 0

    def test_hand_written_record(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(struct.pack("<5f", 1.0, 2.0, 3.0, 0.5, 0.0))
        frame = read_frame_nuscenes_bin(path)
        assert frame.n_points == 1
        assert frame.xyz.tolist() == [[1.0, 2.0, 3.0]]
        assert frame.intensity.tolist() == [0.5]

    def test_bad_length_is_format_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 21)
        with pytest.raises(FormatError):
            read_frame_nuscenes_bin(path)

    def test_float32_values_widen_exactly(self, tmp_path):
        vals = np.array([0.1, -2.5, 1e7, 3.25, 0.0], dtype=np.float32)
        path = tmp_path / "w.bin"
        path.write_bytes(vals.tobytes())
        frame = read_frame_nuscenes_bin(path)
        assert frame.xyz[0].tolist() == [float(vals[0]), float(vals[1]), float(vals[2])]


class TestCompactBin:
    def test_roundtrip(self, tmp_path):
        frame = random_frame(64, seed=9, velocity=True)
        path = tmp_path / "c.bin"
        write_frame_bin(frame, path)
        back = read_frame_bin(path, frame_id="f0", timestamp=1.5)
        assert np.array_equal(back.xyz, frame.xyz)
        assert np.array_equal(back.intensity, frame.intensity)
        assert np.array_equal(back.velocity, frame.velocity)

    def test_layout_is_as_documented(self, tmp_path):
        frame = PointCloudFrame("f", 0.0, np.array([[1.0, 2.0, 3.0]]),
                                np.array([4.0]), np.array([[5.0, 6.0]]))
        path = tmp_path / "l.bin"
        write_frame_bin(frame, path)
        blob = path.read_bytes()
        assert blob[:8] == COMPACT_MAGIC
        assert struct.unpack("<Q", blob[8:16]) == (1,)
        assert struct.unpack("<6d", blob[16:]) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_frame_bin(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(COMPACT_MAGIC + struct.pack("<Q", 2) + b"\x00" * 48)
        with pytest.raises(FormatError):
            read_frame_bin(path)

    def test_arbitrary_bytes_do_not_crash(self, tmp_path):
        rng = np.random.default_rng(0)
        for n in (0, 1, 7, 16, 33):
            path = tmp_path / f"junk{n}.bin"
            path.write_bytes(bytes(rng.integers(0, 256, n, dtype=np.uint8)))
            with pytest.raises(FormatError):
                read_frame_bin(path)


class TestCorpus:
    def test_roundtrip_both_formats(self, tmp_path):
        frames = [random_frame(20, seed=s, velocity=True, frame_id=f"frame_{s}",
                               timestamp=0.1 * s) for s in range(3)]
        for fmt in ("csv", "bin"):
            d = tmp_path / fmt
            write_corpus(d, frames, fmt=fmt)
            back = load_corpus(d)
            assert [f.frame_id for f in back] == [f.frame_id for f in frames]
            for a, b in zip(back, frames):
                assert np.array_equal(a.xyz, b.xyz)
                assert a.timestamp == b.timestamp

    def test_missing_manifest(self, tmp_path):
        # the OS error, which names the file, as for every missing input
        with pytest.raises(FileNotFoundError, match=str(tmp_path / "manifest.json")):
            load_corpus(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ParseError):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("fmt", ["nuscenes", "CSV", ""])
    def test_unknown_format_is_schema_error(self, tmp_path, fmt):
        write_corpus(tmp_path, [random_frame(3)], fmt="bin")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format"] = fmt
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="format"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("escape", ["../outside.csv", "sub/../../outside.csv", "abs"])
    def test_path_outside_corpus_is_schema_error(self, tmp_path, escape):
        corpus = tmp_path / "corpus"
        write_frame_csv(random_frame(3), tmp_path / "outside.csv")
        write_corpus(corpus, [random_frame(3)])
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["frames"][0]["path"] = (str(tmp_path / "outside.csv") if escape == "abs"
                                         else escape)
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="not inside"):
            load_corpus(corpus)

    @pytest.mark.parametrize("key, value", [
        ("frame_id", 7), ("frame_id", None), ("timestamp", True), ("timestamp", "0.5"),
        ("timestamp", float("inf")), ("timestamp", 10**400),
    ], ids=["int-id", "null-id", "bool-ts", "str-ts", "inf-ts", "huge-int-ts"])
    def test_mistyped_frame_entry_is_schema_error(self, tmp_path, key, value):
        write_corpus(tmp_path, [random_frame(3, frame_id="a"), random_frame(3, frame_id="b")])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["frames"][1][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=f"frame 1: {key} must be"):
            load_corpus(tmp_path)

    def test_integer_timestamp_is_accepted(self, tmp_path):
        write_corpus(tmp_path, [random_frame(3)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["frames"][0]["timestamp"] = 3
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert load_corpus(tmp_path)[0].timestamp == 3.0

    @pytest.mark.parametrize("fid", ["", "../escaped", "a/b", "a\\b", "nul\0"])
    def test_writer_refuses_an_id_that_is_not_a_file_name(self, tmp_path, fid):
        with pytest.raises(ValueError, match="not a plain file name"):
            write_corpus(tmp_path / "c", [random_frame(3, frame_id=fid)])
        assert not (tmp_path / "c").exists() and list(tmp_path.iterdir()) == []

    def test_writer_refuses_a_repeated_id_before_writing(self, tmp_path):
        frames = [random_frame(3, frame_id="a"), random_frame(3, frame_id="b"),
                  random_frame(3, seed=1, frame_id="a")]
        with pytest.raises(ValueError, match="'a' repeats"):
            write_corpus(tmp_path / "c", frames)
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("fid, message", [
        ("../../escaped", "not a plain file name"), ("", "not a plain file name"),
        ("a", "'a' repeats"),
    ])
    def test_reader_refuses_a_bad_id_naming_manifest_and_id(self, tmp_path, fid, message):
        write_corpus(tmp_path, [random_frame(3, frame_id="a"), random_frame(3, frame_id="b")])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["frames"][1]["frame_id"] = fid
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=message) as err:
            load_corpus(tmp_path)
        assert str(tmp_path / "manifest.json") in str(err.value)
        assert repr(fid) in str(err.value)

    def test_manifest_missing_fields(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"frames": [{}]}))
        with pytest.raises(SchemaError):
            load_corpus(tmp_path)


class TestAtomicWrite:
    def test_leftover_tmp_directory_does_not_block_writes(self, tmp_path):
        target = tmp_path / "f.bin"
        (tmp_path / "f.bin.tmp").mkdir()
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_overwrite_leaves_no_temp_file_and_keeps_open_mode(self, tmp_path):
        plain = tmp_path / "plain"
        with open(plain, "wb"):
            pass
        target = tmp_path / "f.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "plain"]
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_failed_write_removes_temp_file_and_keeps_target(self, tmp_path):
        target = tmp_path / "f.txt"
        atomic_write_text(target, "old")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not bytes")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_concurrent_writers_to_one_path(self, tmp_path):
        target = tmp_path / "f.bin"
        payloads = [bytes([i]) * 65536 for i in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(atomic_write_bytes, target, p)
                           for p in payloads * 4]:
                future.result(timeout=30)
        assert target.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


@pytest.mark.parametrize("xyz, intensity, velocity, match", [
    pytest.param(np.ones((2, 2)), np.ones(2), None, r"^xyz must be \(N, 3\), got \(2, 2\)$",
                 id="xyz-shape"),
    pytest.param(np.ones((2, 3)), np.ones(3), None, "^3 intensities for 2 points$",
                 id="intensity-count"),
    pytest.param(np.ones((2, 3)), np.ones(2), np.ones((2, 3)),
                 r"^velocity must be \(N, 2\), got \(2, 3\)$", id="velocity-shape"),
    pytest.param(np.ones((2, 3)), np.ones(2), [[0.0, 0.0], [np.inf, 0.0]],
                 "^frame 'f' has non-finite velocity$", id="velocity-non-finite"),
])
def test_bad_frame_is_refused_naming_the_cause(xyz, intensity, velocity, match):
    with pytest.raises(ValueError, match=match):
        PointCloudFrame("f", 0.0, xyz, intensity, velocity)


def test_unknown_format_is_refused_before_writing(tmp_path):
    with pytest.raises(ValueError, match="^unknown corpus format 'ply'$"):
        write_corpus(tmp_path / "c", [random_frame(3)], fmt="ply")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("entry", [{"frame_id": "f0", "timestamp": 0.0}, "f0.csv"],
                         ids=["missing-path", "not-an-object"])
def test_bad_frame_entry_is_schema_error_naming_the_manifest(tmp_path, entry):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "csv", "frames": [entry]}))
    with pytest.raises(SchemaError, match=r"manifest\.json: bad frame entry "):
        load_corpus(tmp_path)
