import json
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pseudoradar import __version__
from pseudoradar.cli import main
from pseudoradar.pointcloud import PointCloudFrame, write_corpus


def read_json(path):
    return json.loads(Path(path).read_text())


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "c"
    assert main(["synth-gen", "--seed", "7", "--frames", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def gmm_model(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("gmm") / "model.json"
    code = main(["fit-gmm", "--counts", str(corpus / "radar_counts.txt"),
                 "--components", "2", "--out", str(out)])
    assert code == 0
    return out


class TestSynthGen:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth-gen", "--seed", "3", "--frames", "2",
                         "--out", str(out)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_frames_empty_manifest(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["synth-gen", "--seed", "1", "--frames", "0", "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["frames"] == []

    def test_bad_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["synth-gen", "--no-such-flag", "1", "--out", "/tmp/x"])
        assert err.value.code == 2

    def test_nan_noise_exits_two_naming_it(self, tmp_path, capsys):
        assert main(["synth-gen", "--noise", "nan", "--out", str(tmp_path / "c")]) == 2
        assert "noise_sigma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--objects", "1001", "--frames", "0"], "n_objects"),
        (["--noise", "1e308", "--frames", "1"], "noise_sigma"),
        (["--noise", "-0.0", "--frames", "1"], "noise_sigma"),
    ])
    def test_value_past_its_bound_exits_two_naming_it(self, tmp_path, capsys, flags, field):
        out = tmp_path / "c"
        assert main(["synth-gen", *flags, "--out", str(out)]) == 2
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_dir_exits_two(self):
        assert main(["synth-gen", "--frames", "1",
                     "--out", "/proc/definitely/not/writable"]) == 2

    def test_manifest_embeds_version_and_config(self, corpus):
        manifest = read_json(corpus / "manifest.json")
        assert manifest["version"] == __version__
        assert manifest["config"]["seed"] == 7
        assert len(manifest["radar_counts"]) == 4


class TestFitGmm:
    def test_single_component_matches_sample_moments(self, tmp_path):
        counts = tmp_path / "counts.txt"
        counts.write_text("10\n20\n30\n40\n")
        out = tmp_path / "m.json"
        assert main(["fit-gmm", "--counts", str(counts), "--components", "1",
                     "--out", str(out)]) == 0
        model = read_json(out)
        assert model["components"][0]["mean"] == pytest.approx(25.0)
        assert model["components"][0]["var"] == pytest.approx(125.0)

    def test_same_seed_identical_model(self, corpus, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert main(["fit-gmm", "--counts", str(corpus / "radar_counts.txt"),
                         "--components", "2", "--seed", "5", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_two_cluster_file_recovers_means(self, tmp_path):
        counts = tmp_path / "two.txt"
        low, high = [18, 20, 22, 19, 21], [200, 205, 195, 199, 201]
        counts.write_text("".join(f"{c}\n" for c in low + high))
        out = tmp_path / "m.json"
        assert main(["fit-gmm", "--counts", str(counts), "--components", "2",
                     "--out", str(out)]) == 0
        means = sorted(c["mean"] for c in read_json(out)["components"])
        assert means[0] == pytest.approx(sum(low) / 5, abs=2.0)
        assert means[1] == pytest.approx(sum(high) / 5, abs=2.0)

    def test_more_components_than_counts_exits_two(self, tmp_path):
        counts = tmp_path / "tiny.txt"
        counts.write_text("5\n6\n")
        assert main(["fit-gmm", "--counts", str(counts), "--components", "5",
                     "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--max-iter", "0"], "max_iter must be >= 1, got 0"),
        (["--max-iter", "-1"], "max_iter must be >= 1, got -1"),
        (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
    ])
    def test_bad_iteration_limits_exit_two_naming_them(self, tmp_path, capsys, flags,
                                                       message):
        counts = tmp_path / "counts.txt"
        counts.write_text("10\n20\n30\n40\n")
        out = tmp_path / "m.json"
        assert main(["fit-gmm", "--counts", str(counts), "--components", "1",
                     "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_component_count_past_its_bound_exits_two_naming_it(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text("".join(f"{c}\n" for c in range(1, 101)))
        out = tmp_path / "m.json"
        assert main(["fit-gmm", "--counts", str(counts), "--components", "65",
                     "--out", str(out)]) == 2
        assert "component count must be in [1, 64], got 65" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_counts_file_exits_two_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "counts.txt"
        assert main(["fit-gmm", "--counts", str(missing), "--components", "1",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert f"No such file or directory: '{missing}'" in capsys.readouterr().err

    def test_non_integer_count_exits_two(self, tmp_path):
        counts = tmp_path / "bad.txt"
        counts.write_text("12\nnope\n")
        assert main(["fit-gmm", "--counts", str(counts), "--components", "1",
                     "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("blob, message", [
        (b"12\n\xff\n", "'utf-8' codec can't decode"),
        (b"12\n\n0\n", "a count must be positive"),
        (b"12\n1" + b"0" * 400 + b"\n", "within float64 range"),
    ], ids=["not-utf8", "zero", "past-float64"])
    def test_bad_counts_file_exits_two_naming_it(self, tmp_path, capsys, blob, message):
        counts = tmp_path / "counts.txt"
        counts.write_bytes(blob)
        out = tmp_path / "m.json"
        assert main(["fit-gmm", "--counts", str(counts), "--components", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{counts}: " in err and message in err
        assert not out.exists()


class TestSample:
    def test_deterministic_and_planar(self, corpus, gmm_model, tmp_path):
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert main(["sample", "--input", str(corpus / "lidar"),
                         "--gmm", str(gmm_model), "--seed", "11",
                         "--out", str(out)]) == 0
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])
        from pseudoradar.pointcloud import load_corpus
        for frame in load_corpus(outs[0]):
            assert (frame.xyz[:, 2] == 0.0).all()

    def test_reports_embed_config_and_version(self, corpus, gmm_model, tmp_path):
        out = tmp_path / "p"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--out", str(out)]) == 0
        doc = read_json(out / "reports.json")
        assert doc["version"] == __version__
        assert doc["config"]["alpha_int"] == 4.0
        assert {"frame_id", "n_input", "n_after_thin", "N", "N1", "N2",
                "fallback_stage1", "seed"} <= set(doc["frames"][0])

    def test_ablate_weights_zeroes_other_families(self, corpus, gmm_model, tmp_path):
        out = tmp_path / "abl"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--ablate-weights", "dist",
                     "--out", str(out)]) == 0
        cfg = read_json(out / "reports.json")["config"]
        assert cfg["alpha_int"] == 0.0 and cfg["alpha_spa"] == 0.0
        assert cfg["alpha_dist"] > 0.0

    def test_missing_gmm_exits_two(self, corpus, tmp_path):
        assert main(["sample", "--input", str(corpus / "lidar"),
                     "--gmm", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_exits_two(self, corpus, gmm_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_int": 1.0, "alpha_typo": 2.0}))
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["tau", "search_width", "window_width", "batch_size",
                                     "lambda_global"])
    def test_contrastive_key_exits_two_as_unknown(self, corpus, gmm_model, tmp_path, capsys,
                                                  key):
        # the file holds sampling keys only; no command reads the loss keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_int": 1.0, key: 1}))
        out = tmp_path / "o"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg), "--out", str(out)]) == 2
        assert f"unknown keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"neighbor_count": 8.5}, "neighbor_count must be an integer, got 8.5"),
        ({"neighbor_count": True}, "neighbor_count must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"d_threshold": "0.3"}, "d_threshold must be a number, got '0.3'"),
        ({"center_radius": [15.0]}, "center_radius must be a number, got [15.0]"),
        ({"alpha_int": False}, "alpha_int must be a number, got False"),
    ])
    def test_mistyped_config_value_exits_two_naming_it(self, corpus, gmm_model, tmp_path,
                                                       capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"center_radius": NaN}', "center_radius must be finite, got nan"),
        ('{"alpha_int": NaN}', "alpha_int must be finite, got nan"),
        ('{"d_threshold": NaN}', "d_threshold must be finite, got nan"),
        ('{"dist_epsilon": Infinity}', "dist_epsilon must be finite, got inf"),
        ('{"dist_epsilon": -1.0}', "dist_epsilon must be >= 0, got -1.0"),
    ])
    def test_non_finite_config_value_exits_two_naming_it(self, corpus, gmm_model, tmp_path,
                                                         capsys, text, message):
        # Python's json module reads NaN and Infinity, which strict JSON lacks
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["center_radius", "alpha_int", "d_threshold",
                                     "dist_epsilon"])
    def test_integer_past_float_range_exits_two_naming_it(self, corpus, gmm_model, tmp_path,
                                                          capsys, key):
        # a float key given an integer that overflows float() must fail at the
        # config, not later inside the draw
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"%s": 1%s}' % (key, "0" * 400))
        out = tmp_path / "o"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"cfg.json: {key} must be within float64 range, got a 401-digit integer"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("which", ["config", "gmm"])
    def test_non_utf8_file_exits_two_naming_it(self, corpus, gmm_model, tmp_path, capsys,
                                               which):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"alpha_int": "\xff"}')
        model = bad if which == "gmm" else gmm_model
        config = ["--config", str(bad)] if which == "config" else []
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm", str(model),
                     *config, "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["config", "gmm", "manifest"])
    def test_integer_past_digit_limit_exits_two_naming_the_file(self, corpus, gmm_model,
                                                                tmp_path, capsys, which):
        import shutil
        huge = "1" + "0" * 5000  # past Python's 4,300-digit int parsing limit
        lidar = tmp_path / "lidar"
        shutil.copytree(corpus / "lidar", lidar)
        if which == "manifest":
            bad = lidar / "manifest.json"
            bad.write_text(bad.read_text().replace('"timestamp": 0.0', f'"timestamp": {huge}'))
        else:
            bad = tmp_path / "bad.json"
            bad.write_text('{"seed": %s}' % huge if which == "config" else
                           '{"components": [{"weight": 1.0, "mean": %s, "var": 1.0}]}' % huge)
        model = bad if which == "gmm" else gmm_model
        config = ["--config", str(bad)] if which == "config" else []
        assert main(["sample", "--input", str(lidar), "--gmm", str(model), *config,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}: Exceeds the limit (4300 digits)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--gmm"])
    def test_missing_file_exits_two_naming_it(self, corpus, gmm_model, tmp_path, capsys,
                                              flag):
        missing = tmp_path / "missing.json"
        files = (["--gmm", str(missing)] if flag == "--gmm" else
                 ["--gmm", str(gmm_model), "--config", str(missing)])
        assert main(["sample", "--input", str(corpus / "lidar"), *files,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"No such file or directory: '{missing}'" in capsys.readouterr().err

    def test_integer_config_value_for_float_field(self, corpus, gmm_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"center_radius": 10}))
        out = tmp_path / "o"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg), "--out", str(out)]) == 0
        assert read_json(out / "reports.json")["config"]["center_radius"] == 10

    def test_tiny_threshold_exits_two(self, gmm_model, tmp_path, capsys):
        rng = np.random.default_rng(0)
        write_corpus(tmp_path / "lidar", [
            PointCloudFrame(f"f{i}", float(i), rng.normal(0, 20, (300, 3)),
                            rng.uniform(1, 20, 300)) for i in range(2)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_threshold": 1e-18}))
        assert main(["sample", "--input", str(tmp_path / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "d_threshold=1e-18" in capsys.readouterr().err

    def test_config_file_applies_and_flags_override(self, corpus, gmm_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "d_threshold": 0.1}))
        out = tmp_path / "o"
        assert main(["sample", "--input", str(corpus / "lidar"), "--gmm",
                     str(gmm_model), "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
        resolved = read_json(out / "reports.json")["config"]
        assert resolved["seed"] == 9          # flag wins
        assert resolved["d_threshold"] == 0.1  # file wins over default


class TestChamfer:
    def test_self_comparison_zero(self, corpus, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["chamfer", "--a", str(corpus / "radar"),
                     "--b", str(corpus / "radar"), "--report", str(report)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0
        assert read_json(report)["mean"] == 0.0

    def test_hand_corpus_value(self, tmp_path, capsys):
        import numpy as np
        from pseudoradar.pointcloud import PointCloudFrame, write_corpus
        a = [PointCloudFrame("f0", 0.0, np.array([[0.0, 0, 0]]), np.ones(1)),
             PointCloudFrame("f1", 1.0, np.array([[0.0, 0, 0]]), np.ones(1))]
        b = [PointCloudFrame("f0", 0.0, np.array([[3.0, 4.0, 0]]), np.ones(1)),
             PointCloudFrame("f1", 1.0, np.array([[1.0, 0, 0]]), np.ones(1))]
        write_corpus(tmp_path / "a", a)
        write_corpus(tmp_path / "b", b)
        report = tmp_path / "r.json"
        assert main(["chamfer", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                     "--report", str(report)]) == 0
        doc = read_json(report)
        assert doc["per_frame"][0]["value"] == 50.0
        assert doc["per_frame"][1]["value"] == 2.0
        assert doc["mean"] == 26.0

    def test_orphan_frames_exit_two(self, corpus, tmp_path):
        import numpy as np
        from pseudoradar.pointcloud import PointCloudFrame, write_corpus
        write_corpus(tmp_path / "solo",
                     [PointCloudFrame("only", 0.0, np.ones((2, 3)), np.ones(2))])
        assert main(["chamfer", "--a", str(corpus / "radar"),
                     "--b", str(tmp_path / "solo"),
                     "--report", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("change", [{"format": "nuscenes"},
                                        {"path": "../outside.csv"}])
    def test_bad_manifest_exits_two(self, corpus, tmp_path, change):
        import shutil
        bad = tmp_path / "bad"
        shutil.copytree(corpus / "radar", bad)
        shutil.copy(bad / "frame_0000.csv", tmp_path / "outside.csv")
        manifest = read_json(bad / "manifest.json")
        if "format" in change:
            manifest["format"] = change["format"]
        else:
            manifest["frames"][0]["path"] = change["path"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        assert main(["chamfer", "--a", str(bad), "--b", str(corpus / "radar"),
                     "--report", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("command", ["chamfer", "sample"])
    def test_frames_not_a_list_exits_two(self, corpus, gmm_model, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps({"format": "csv", "frames": 5}))
        args = (["chamfer", "--a", str(bad), "--b", str(corpus / "radar"),
                 "--report", str(tmp_path / "r.json")] if command == "chamfer" else
                ["sample", "--input", str(bad), "--gmm", str(gmm_model),
                 "--out", str(tmp_path / "out")])
        assert main(args) == 2
        assert "'frames' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("command, index, key, value", [
        ("chamfer", 0, "timestamp", None),
        ("chamfer", 0, "frame_id", ["frame_0000"]),
        ("sample", 1, "timestamp", float("nan")),
    ])
    def test_mistyped_frame_entry_exits_two_naming_it(self, corpus, gmm_model, tmp_path,
                                                      capsys, command, index, key, value):
        import shutil
        bad = tmp_path / "bad"
        shutil.copytree(corpus / "lidar", bad)
        manifest = read_json(bad / "manifest.json")
        manifest["frames"][index][key] = value
        (bad / "manifest.json").write_text(json.dumps(manifest))
        args = (["chamfer", "--a", str(bad), "--b", str(corpus / "lidar"),
                 "--report", str(tmp_path / "r.json")] if command == "chamfer" else
                ["sample", "--input", str(bad), "--gmm", str(gmm_model),
                 "--out", str(tmp_path / "out")])
        assert main(args) == 2
        assert f"manifest.json: frame {index}: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, frame_id, message", [
        ("sample", "../../escaped", "is not a plain file name"),
        ("sample", "frame_0000", "'frame_0000' repeats"),
        ("chamfer", "frame_0000", "'frame_0000' repeats"),
    ])
    def test_bad_frame_id_exits_two_naming_it(self, corpus, gmm_model, tmp_path, capsys,
                                              command, frame_id, message):
        # before, sample wrote outside --out, or wrote 2 files for 3 frames,
        # and chamfer of such a corpus against itself was not 0
        import shutil
        bad = tmp_path / "d" / "bad"
        shutil.copytree(corpus / "lidar", bad)
        manifest = read_json(bad / "manifest.json")
        manifest["frames"][1]["frame_id"] = frame_id
        (bad / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "d" / "out" / "p"
        args = (["chamfer", "--a", str(bad), "--b", str(bad),
                 "--report", str(tmp_path / "r.json")] if command == "chamfer" else
                ["sample", "--input", str(bad), "--gmm", str(gmm_model), "--out", str(out)])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(bad / "manifest.json") in err and message in err
        assert not out.exists() and not (tmp_path / "r.json").exists()
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["bad"]

    def test_empty_frames_exit_one_and_write_no_report(self, tmp_path, capsys):
        full, empty = np.ones((2, 3)), np.zeros((0, 3))
        write_corpus(tmp_path / "a", [PointCloudFrame("f0", 0.0, full, np.ones(2)),
                                      PointCloudFrame("f1", 1.0, empty, np.ones(0)),
                                      PointCloudFrame("f2", 2.0, full, np.ones(2))])
        write_corpus(tmp_path / "b", [PointCloudFrame("f0", 0.0, full, np.ones(2)),
                                      PointCloudFrame("f1", 1.0, full, np.ones(2)),
                                      PointCloudFrame("f2", 2.0, empty, np.ones(0))])
        report, plot = tmp_path / "r.json", tmp_path / "p.svg"
        assert main(["chamfer", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                     "--report", str(report), "--plot", str(plot)]) == 1
        assert "f1, f2" in capsys.readouterr().err
        assert not report.exists() and not plot.exists()

    def test_svg_plot_is_well_formed_xml(self, corpus, tmp_path):
        report, plot = tmp_path / "r.json", tmp_path / "p.svg"
        assert main(["chamfer", "--a", str(corpus / "radar"),
                     "--b", str(corpus / "radar"), "--report", str(report),
                     "--plot", str(plot)]) == 0
        root = ET.parse(plot).getroot()
        assert root.tag.endswith("svg")


class TestGradcheck:
    def test_default_seed_passes_and_reports(self, tmp_path, capsys, monkeypatch,
                                             gradcheck_seed0):
        # the one seed-0 gradcheck of the test run stands in for the command's own
        from pseudoradar import cli as cli_mod
        errors, _ = gradcheck_seed0

        def seed0(seed=0):
            assert seed == 0
            return dict(errors)

        monkeypatch.setattr(cli_mod, "gradcheck_components", seed0)
        report = tmp_path / "g.json"
        assert main(["gradcheck", "--seed", "0", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        doc = read_json(report)
        for component in ("info_nce", "bcsa", "local_loss", "aggregate_global",
                          "global_loss", "total_loss"):
            assert component in doc["components"]
            assert doc["components"][component] < 1e-5
            assert component in out
        assert doc["failures"] == []

    def test_corrupted_gradient_fails_with_named_component(self, monkeypatch, capsys):
        # simulate a broken backward rule: the harness must exit 1 and name it
        from pseudoradar import cli as cli_mod

        def broken(seed=0):
            return {"info_nce": 1.2e-9, "bcsa": 0.37, "local_loss": 2e-8,
                    "aggregate_global": 1e-9, "global_loss": 3e-9, "total_loss": 4e-8}

        monkeypatch.setattr(cli_mod, "gradcheck_components", broken)
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "bcsa" in captured.err


class TestPretrainToy:
    def test_improves_and_writes_trace(self, corpus, tmp_path):
        report = tmp_path / "t.json"
        assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "20",
                     "--lr", "0.05", "--seed", "1", "--report", str(report)]) == 0
        doc = read_json(report)
        assert doc["steps"][0]["loss"] > doc["steps"][-1]["loss"]
        assert {"final_pos_sim", "final_neg_sim", "seed"} <= set(doc)

    def test_zero_lr_flat_trace_exits_one(self, corpus, tmp_path):
        assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "5",
                     "--lr", "0", "--seed", "1",
                     "--report", str(tmp_path / "t.json")]) == 1

    def test_divergence_exits_one_and_writes_no_report(self, corpus, tmp_path, capsys):
        # the one line that names the cause is all a diverging run prints:
        # no floating-point warning comes before it
        report = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "3",
                         "--lr", "1e300", "--seed", "1", "--report", str(report)]) == 1
        assert capsys.readouterr().err == "error: non-finite loss at step 1\n"
        assert not report.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
    def test_bad_learning_rate_exits_two_naming_it(self, corpus, tmp_path, capsys, lr):
        report = tmp_path / "t.json"
        assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "2",
                     "--lr", lr, "--seed", "1", "--report", str(report)]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf", "1e308"])
    def test_bad_noise_exits_two_naming_it(self, corpus, tmp_path, capsys, noise):
        report = tmp_path / "t.json"
        assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "2",
                     "--noise", noise, "--report", str(report)]) == 2
        assert "error: noise_sigma must be in [0, 1e+06]" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--width", "257"], "width must be in [1, 256], got 257"),
        (["--channels", "0"], "channels must be in [1, 256], got 0"),
        (["--channels", "256", "--height", "256", "--width", "64"],
         "lower batch, channels, height or width"),
    ])
    def test_sizes_past_their_bounds_exit_two_naming_them(self, corpus, tmp_path, capsys,
                                                          flags, message):
        report = tmp_path / "t.json"
        assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "2",
                     *flags, "--report", str(report)]) == 2
        assert message in capsys.readouterr().err
        assert not report.exists()

    def test_same_seed_identical_trace(self, corpus, tmp_path):
        blobs = []
        for name in ("t1.json", "t2.json"):
            path = tmp_path / name
            assert main(["pretrain-toy", "--corpus", str(corpus), "--steps", "6",
                         "--lr", "0.05", "--seed", "4", "--report", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_manifest_exits_two(self, tmp_path):
        assert main(["pretrain-toy", "--corpus", str(tmp_path), "--steps", "2",
                     "--lr", "0.1", "--report", str(tmp_path / "t.json")]) == 2

    @pytest.mark.parametrize("blob, message", [
        (b"[1, 2]", "expected a JSON object, got list"),
        (b'{"frames": 5}', "'frames' must be a list"),
        (b'{"frames": [', "manifest.json: Expecting"),
        (b'{"frames": "\xff"}', "manifest.json: 'utf-8' codec"),
    ])
    def test_bad_manifest_exits_two_naming_it(self, tmp_path, capsys, blob, message):
        (tmp_path / "manifest.json").write_bytes(blob)
        assert main(["pretrain-toy", "--corpus", str(tmp_path), "--steps", "2",
                     "--lr", "0.1", "--report", str(tmp_path / "t.json")]) == 2
        assert message in capsys.readouterr().err
