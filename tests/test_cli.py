import ctypes
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgbev.arrayio import (
    PCI_CSV_COLUMNS,
    RESULT_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    load_array,
    read_pgm16,
    save_array,
    write_pgm16,
)
from fgbev.cli import _dump, main

SCENE_CFG = {
    "n_frames": 3,
    "n_boxes": 8,
    "lidar_rays_per_box": 16,
    "clutter_points": 32,
    "dropout_fraction": 0.4,
    "stationary_fraction": 0.7,
    "image_width": 256,
    "image_height": 128,
    "seed": 42,
}

PIPE_CFG = {
    "scene": {k: v for k, v in SCENE_CFG.items() if k != "seed"},
    "seed": 9,
    "soft_label_noise": 0.1,
}


@pytest.fixture()
def scene_path(tmp_path):
    cfg = tmp_path / "scene_cfg.json"
    cfg.write_text(json.dumps(SCENE_CFG))
    out = tmp_path / "scene"
    assert main(["gen-scene", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "scene.json"


@pytest.fixture()
def pipe_cfg_path(tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(PIPE_CFG))
    return path


class TestGenScene:
    def test_writes_loadable_scene(self, scene_path, capsys):
        assert scene_path.exists()
        data = json.loads(scene_path.read_text())
        assert data["format"] == "fgbev-scene-v1"
        assert data["seed"] == 42

    def test_seed_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SCENE_CFG))
        out = tmp_path / "s"
        assert main(["gen-scene", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 7
        assert json.loads((out / "scene.json").read_text())["seed"] == 7

    def test_unknown_scene_field_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SCENE_CFG, "n_wheels": 4}))
        assert main(["gen-scene", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "n_wheels" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = main(["gen-scene", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["file", "flag"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, how):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SCENE_CFG, "seed": -1 if how == "file" else 3}))
        argv = ["gen-scene", "--config", str(cfg), "--out", str(tmp_path / "x")]
        assert main(argv + (["--seed", "-1"] if how == "flag" else [])) == 1
        assert "seed" in capsys.readouterr().err

    def test_defaults_without_config(self, tmp_path, capsys):
        out = tmp_path / "defaults"
        assert main(["gen-scene", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["frames"] == 2
        assert summary["seed"] == 0

    def test_too_many_points_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frames": 100_000_000}))
        assert main(["gen-scene", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        captured = capsys.readouterr()
        assert "n_frames" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_too_many_frames_without_points_exits_1(self, tmp_path, capsys):
        # No LiDAR points, so only the frame bound stops a scene of empty frames.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frames": 1001, "n_boxes": 0, "clutter_points": 0}))
        out = tmp_path / "x"
        assert main(["gen-scene", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "n_frames" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_too_many_cameras_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_cameras": 65, "n_boxes": 12, "clutter_points": 0}))
        out = tmp_path / "x"
        assert main(["gen-scene", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "n_cameras" in captured.err and "64" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_scene_rules_of_the_pipeline_do_not_apply(self, tmp_path, capsys):
        # Stride 16 and a single camera are pipeline rules; stride-4 heatmaps
        # of any camera still work on such a scene.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SCENE_CFG, "image_width": 100, "n_cameras": 6}))
        out = tmp_path / "s"
        assert main(["gen-scene", "--config", str(cfg), "--out", str(out)]) == 0
        hm = tmp_path / "hm"
        argv = ["heatmap", "--scene", str(out / "scene.json"), "--cam", "5", "--out", str(hm)]
        assert main(argv) == 0
        assert read_pgm16(hm / "s4.pgm").shape == (128 // 4, 100 // 4)

    def test_config_dir_env_fallback(self, tmp_path, monkeypatch, capsys):
        cfgdir = tmp_path / "configs"
        cfgdir.mkdir()
        (cfgdir / "env.json").write_text(json.dumps(SCENE_CFG))
        monkeypatch.setenv("FGBEV_CONFIG_DIR", str(cfgdir))
        monkeypatch.chdir(tmp_path)
        assert main(["gen-scene", "--config", "env.json", "--out", str(tmp_path / "o")]) == 0


class TestLabelsCommand:
    def test_writes_rasters(self, scene_path, tmp_path, capsys):
        out = tmp_path / "labels"
        assert main(["labels", "--scene", str(scene_path), "--cam", "0", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["grid"] == [8, 16]
        for name in ("depth.pgm", "seg.pgm", "valid.pgm"):
            img = read_pgm16(out / name)
            assert img.shape == (8, 16)
        valid = read_pgm16(out / "valid.pgm")
        assert (valid > 0).sum() == summary["valid_cells"]

    def test_bad_camera_index_exits_1(self, scene_path, capsys):
        rc = main(["labels", "--scene", str(scene_path), "--cam", "9", "--out", "/tmp/x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "camera index" in err and "--cam" in err

    def test_bin_flag_writes_flat_arrays(self, scene_path, tmp_path, capsys):
        out = tmp_path / "labels"
        rc = main(["labels", "--scene", str(scene_path), "--out", str(out), "--bin"])
        assert rc == 0
        depth = load_array(out / "depth")
        assert depth.shape == (8, 16, 118)
        assert load_array(out / "seg").shape == (8, 16)

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--d-max", "inf", "d_max"),
            ("--d-max", "nan", "d_max"),
            ("--bin-size", "nan", "bin_size"),
        ],
    )
    def test_non_finite_bin_flag_exits_1(self, scene_path, tmp_path, capsys, flag, value, field):
        argv = ["labels", "--scene", str(scene_path), "--out", str(tmp_path / "l"), flag, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_bin_count_overflow_exits_1(self, scene_path, tmp_path, capsys):
        argv = ["labels", "--scene", str(scene_path), "--out", str(tmp_path / "l")]
        assert main(argv + ["--d-max", "1e308", "--bin-size", "1e-10"]) == 1
        captured = capsys.readouterr()
        assert "bin_size" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_stride_not_dividing_image_names_flag(self, scene_path, tmp_path, capsys):
        argv = ["labels", "--scene", str(scene_path), "--out", str(tmp_path / "l")]
        assert main(argv + ["--stride", "3"]) == 1
        captured = capsys.readouterr()
        assert "--stride" in captured.err and "does not divide" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("stride", ["0", "-16"])
    def test_non_positive_stride_exits_1(self, scene_path, tmp_path, capsys, stride):
        argv = ["labels", "--scene", str(scene_path), "--out", str(tmp_path / "l")]
        assert main(argv + ["--stride", stride]) == 1
        captured = capsys.readouterr()
        assert "--stride" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_dense_depth_is_charged_only_with_bin(self, tmp_path, capsys):
        # Stride 1 on the default 704x256 camera has 180,224 feature cells; with
        # 1,180 bins of 0.05 m, the dense one-hot that only --bin builds would
        # hold 212,664,320, past the array budget.
        assert main(["gen-scene", "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        scene = str(tmp_path / "s" / "scene.json")
        argv = ["labels", "--scene", scene, "--stride", "1", "--bin-size", "0.05"]
        assert main([*argv, "--out", str(tmp_path / "labels")]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == [256, 704]
        out = tmp_path / "binned"
        assert main([*argv, "--out", str(out), "--bin"]) == 1
        captured = capsys.readouterr()
        for flag in ("--stride", "--bin-size", "for --bin", "array elements"):
            assert flag in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    # Default stride 16 with 118 bins, and stride 4, on a camera 2**31 pixels wide.
    @pytest.mark.parametrize(
        "command,flags,width,named",
        [
            ("labels", ["--stride", "1", "--bin-size", "0.001", "--bin"], None, "--bin-size"),
            ("labels", [], 2**31, "image_width x image_height"),
            ("heatmap", [], 2**31, "image_width x image_height"),
        ],
        ids=["labels-flags", "labels-wide-camera", "heatmap-wide-camera"],
    )
    def test_arrays_over_budget_exit_1(
        self, scene_path, tmp_path, capsys, command, flags, width, named
    ):
        if width is not None:
            data = json.loads(scene_path.read_text())
            data["frames"][-1]["cameras"][0]["image_width"] = width
            scene_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, "--scene", str(scene_path), "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert named in captured.err and "array elements" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


class TestPciStatsCommand:
    def test_json_format(self, scene_path, capsys):
        assert main(["pci-stats", "--scene", str(scene_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_boxes"] == 8
        assert (
            report["boxes_assigned_pseudo"] + report["boxes_unrecoverable"]
            == report["boxes_without_points_after_fc"]
        )

    def test_csv_format(self, scene_path, capsys):
        assert main(["pci-stats", "--scene", str(scene_path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split(",")[0] == "total_boxes"
        assert len(lines) == 2 and len(lines[1].split(",")) == 5

    @pytest.mark.parametrize("flag", ["--d-min", "--d-max"])
    def test_non_finite_range_exits_1(self, scene_path, capsys, flag):
        assert main(["pci-stats", "--scene", str(scene_path), flag, "nan"]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("d_min,d_max", [("60", "1"), ("5", "5")])
    def test_inverted_range_exits_1(self, scene_path, capsys, d_min, d_max):
        argv = ["pci-stats", "--scene", str(scene_path), "--d-min", d_min, "--d-max", d_max]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "--d-min" in captured.err and "--d-max" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestHeatmapCommand:
    def test_writes_both_rasters(self, scene_path, tmp_path, capsys):
        out = tmp_path / "hm"
        rc = main(["heatmap", "--scene", str(scene_path), "--beta", "0.1", "--out", str(out)])
        assert rc == 0
        raw = read_pgm16(out / "s4.pgm")
        filt = read_pgm16(out / "s4_filtered.pgm")
        assert raw.shape == (128 // 4, 256 // 4)
        # Filtering only removes mass below the threshold.
        assert (filt <= raw).all()
        assert (filt[filt > 0] == raw[filt > 0]).all()

    def test_bad_beta_exits_1(self, scene_path, tmp_path, capsys):
        out = tmp_path / "hm"
        argv = ["heatmap", "--scene", str(scene_path), "--out", str(out)]
        assert main(argv + ["--beta", "1.5"]) == 1
        captured = capsys.readouterr()
        assert "--beta" in captured.err
        assert captured.out == "" and not out.exists()


# Each case edits a valid scene file; stderr must name the path of the bad value.
MALFORMED_SCENES = {
    "yaw-string": (lambda d: d["frames"][1]["boxes"][0].update(yaw="x"), "frames[1].boxes[0].yaw"),
    "frames-number": (lambda d: d.update(frames=5), "frames"),
    "box-number": (lambda d: d["frames"][1].update(boxes=[1]), "frames[1].boxes[0]"),
    "center-object": (
        lambda d: d["frames"][1]["boxes"][0].update(center={}),
        "frames[1].boxes[0].center",
    ),
    "cameras-null": (lambda d: d["frames"][1].update(cameras=None), "frames[1].cameras"),
    "fx-nan": (
        lambda d: d["frames"][2]["cameras"][0].update(fx=math.nan),
        "frames[2].cameras[0].fx",
    ),
    "timestamp-nan": (lambda d: d["frames"][0].update(timestamp=math.nan), "frames[0].timestamp"),
    "yaw-nan": (
        lambda d: d["frames"][2]["boxes"][3].update(yaw=math.nan),
        "frames[2].boxes[3].yaw",
    ),
    "image-width-string": (
        lambda d: d["frames"][2]["cameras"][0].update(image_width="704"),
        "frames[2].cameras[0].image_width",
    ),
    "unknown-box-key": (
        lambda d: d["frames"][2]["boxes"][0].update(wheels=4),
        "frames[2].boxes[0].wheels",
    ),
    "size-pair": (
        lambda d: d["frames"][1]["boxes"][2].update(size=[1.0, 2.0]),
        "frames[1].boxes[2].size",
    ),
    "rotation-scaled": (
        lambda d: d["frames"][0]["ego_pose"].update(rotation=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        "frames[0].ego_pose",
    ),
}


@pytest.mark.parametrize("command", ["labels", "pci-stats", "heatmap"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
def test_malformed_scene_exits_1_naming_path(scene_path, tmp_path, capsys, command, case):
    edit, where = MALFORMED_SCENES[case]
    data = json.loads(scene_path.read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = [command, "--scene", str(bad)]
    if command != "pci-stats":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert where in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["labels", "pci-stats", "heatmap"])
def test_missing_scene_exits_1_naming_flag(tmp_path, capsys, command):
    missing = tmp_path / "nope.json"
    argv = [command, "--scene", str(missing)]
    if command != "pci-stats":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"--scene file not found: {missing}" in captured.err
    assert captured.out == ""


# Deeper than the JSON reader's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command,text",
    [
        (["pipeline", "--config"], '{"scene": ' + DEEP + "}"),
        (["pci-stats", "--scene"], '{"format": "fgbev-scene-v1", "frames": ' + DEEP + "}"),
        (["pci-stats", "--scene"], '{"format": "fgbev-scene-v1", '),
    ],
    ids=["nested-config", "nested-scene", "truncated-scene"],
)
def test_unreadable_json_exits_1_naming_file(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(command + [str(bad)]) == 1
    captured = capsys.readouterr()
    assert str(bad) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Each case gives a path flag a file where a directory belongs, or the reverse.
WRONG_KIND_PATHS = {
    "gen-scene-out-file": ["gen-scene", "--out", "{file}"],
    "labels-out-file": ["labels", "--scene", "{scene}", "--out", "{file}"],
    "heatmap-out-file": ["heatmap", "--scene", "{scene}", "--out", "{file}"],
    "pipeline-out-file": ["pipeline", "--config", "{config}", "--out", "{file}"],
    "pipeline-config-dir": ["pipeline", "--config", "{dir}"],
    "sweep-config-dir": ["sweep", "--config", "{dir}", "--toggles", "fc"],
    "pci-stats-scene-dir": ["pci-stats", "--scene", "{dir}"],
    "labels-scene-dir": ["labels", "--scene", "{dir}", "--out", "{out}"],
}


# The first piece of work each command does once its inputs are read and checked.
WORK = ("generate_scene", "generate_hard_labels", "elliptical_gaussian_heatmap",
        "run_pipeline", "ablation_sweep", "frame_combination")


@pytest.mark.parametrize("case", sorted(WRONG_KIND_PATHS))
def test_path_of_the_wrong_kind_exits_1(
    tmp_path, scene_path, pipe_cfg_path, capsys, monkeypatch, case
):
    def no_work(*args, **kwargs):
        raise AssertionError("a path of the wrong kind must fail before any work")

    for name in WORK:
        monkeypatch.setattr(f"fgbev.cli.{name}", no_work)
    paths = {
        "file": tmp_path / "a_file",
        "dir": tmp_path / "a_dir",
        "scene": scene_path,
        "config": pipe_cfg_path,
        "out": tmp_path / "out",
    }
    paths["file"].write_text("")
    paths["dir"].mkdir()
    capsys.readouterr()
    argv = WRONG_KIND_PATHS[case]
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    bad = paths["file"] if "{file}" in argv else paths["dir"]
    assert str(bad) in captured.err
    assert "Traceback" not in captured.err
    assert "[timing]" not in captured.err
    assert captured.out == ""


# Scene configs that pass every field check but cannot be laid out.
UNPLACEABLE_SCENES = {
    "crowded": {"n_boxes": 60, "detection_range_xy": 12},
    "too-many-boxes": {"n_boxes": 100000, "lidar_rays_per_box": 0, "clutter_points": 0},
    "tiny-region": {"detection_range_xy": 1e-300},
}


@pytest.mark.parametrize("command", [["pipeline"], ["sweep", "--toggles", "fc"]])
@pytest.mark.parametrize("case", sorted(UNPLACEABLE_SCENES))
def test_unplaceable_scene_is_a_config_error(tmp_path, capsys, command, case):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scene": UNPLACEABLE_SCENES[case]}))
    assert main(command + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "scene.n_boxes" in captured.err and "scene.detection_range_xy" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Scenes wider than MAX_SCENE_EXTENT (1e6 m), in their detection range or in the
# distance a box (8 m/s) moves over the frames, and the fields the error names.
TRAVEL_FIELDS = ["frame_interval", "n_frames"]
TOO_WIDE_SCENES = {
    "range-1e308": ({"detection_range_xy": 1e308}, ["detection_range_xy"]),
    "range-1e160": ({"detection_range_xy": 1e160}, ["detection_range_xy"]),
    "range-just-over": ({"detection_range_xy": 1.000001e6}, ["detection_range_xy"]),
    "travel-1e308": ({"frame_interval": 1e308, "n_frames": 3}, TRAVEL_FIELDS),
    "travel-1e200": ({"frame_interval": 1e200}, TRAVEL_FIELDS),
    "travel-just-over": ({"frame_interval": 62500.01, "n_frames": 3}, TRAVEL_FIELDS),
}
WIDEST_SCENE = {"detection_range_xy": 1e6, "frame_interval": 62500, "n_frames": 3}


def _scene_command(tmp_path, command, scene):
    """argv running `command` on the scene config `scene`, with --out under tmp_path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(scene if command == "gen-scene" else {"scene": scene}))
    return [command, "--config", str(path), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["gen-scene", "pipeline"])
@pytest.mark.parametrize("case", sorted(TOO_WIDE_SCENES))
def test_scene_too_wide_exits_1_naming_fields(tmp_path, capsys, command, case):
    scene, fields = TOO_WIDE_SCENES[case]
    assert main(_scene_command(tmp_path, command, scene)) == 1
    captured = capsys.readouterr()
    assert all(name in captured.err for name in fields), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-scene", "pipeline"])
def test_widest_scene_runs(tmp_path, capsys, command):
    # RuntimeWarnings are errors under pytest, so no overflow happens at the limit.
    assert main(_scene_command(tmp_path, command, WIDEST_SCENE)) == 0


class TestPipelineCommand:
    def test_stdout_byte_identical(self, pipe_cfg_path, capsys):
        assert main(["pipeline", "--config", str(pipe_cfg_path)]) == 0
        first = capsys.readouterr()
        assert main(["pipeline", "--config", str(pipe_cfg_path)]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "[timing]" in first.err

    def test_result_fields_present(self, pipe_cfg_path, capsys):
        assert main(["pipeline", "--config", str(pipe_cfg_path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {
            "loss",
            "included_cells",
            "pci_report",
            "bev_occupancy_student",
            "bev_occupancy_teacher",
            "msfe",
        }
        assert len(result["bev_occupancy_student"]) == 128

    def test_timing_flag_embeds_timings(self, pipe_cfg_path, capsys):
        assert main(["pipeline", "--config", str(pipe_cfg_path), "--timing"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert "timing" in result

    def test_timing_with_csv_exits_1_before_any_stage(self, pipe_cfg_path, capsys):
        argv = ["pipeline", "--config", str(pipe_cfg_path), "--timing", "--format", "csv"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "--timing" in captured.err
        assert "[timing]" not in captured.err
        assert captured.out == ""

    def test_flag_overrides_config(self, tmp_path, capsys):
        def stdout(config, *flags):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            assert main(["pipeline", "--config", str(path), *flags]) == 0
            return capsys.readouterr().out

        for flag, key, file_value, flag_value in [
            ("--seed", "seed", 9, 123),
            ("--encoder-kind", "encoder_kind", "identity", "box_blur"),
            ("--seg-threshold", "seg_threshold", 0.25, 0.0),
            ("--beta", "beta", 0.1, 0.3),
        ]:
            flagged = stdout({**PIPE_CFG, key: file_value}, flag, str(flag_value))
            assert flagged != stdout({**PIPE_CFG, key: file_value}), flag
            assert flagged == stdout({**PIPE_CFG, key: flag_value}), flag

    def test_defaults_without_config(self, capsys):
        # Full-size default run; also serves as a coarse performance smoke.
        assert main(["pipeline"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["included_cells"] <= 128 * 128

    def test_unknown_config_field_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        assert main(["pipeline", "--config", str(bad)]) == 1
        assert "bogus" in capsys.readouterr().err

    # Python's json accepts NaN and +-Infinity, so they must be rejected by name.
    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"seed": -1}', "seed"),
            ('{"bev": {"range_xy": NaN}}', "range_xy"),
            ('{"scene": {"frame_interval": Infinity}}', "frame_interval"),
            ('{"beta": -Infinity}', "beta"),
            ('{"bev": {"z_range": [-5.0, NaN]}}', "z_range"),
            ('{"bins": {"d_max": 1e999}}', "d_max"),
        ],
    )
    def test_invalid_number_exits_1_naming_field(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["pipeline", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"bev": {"z_range": [1]}}', "z_range"),
            ('{"bev": {"z_range": [1, 2, 3]}}', "z_range"),
        ],
    )
    def test_pair_of_wrong_length_exits_1_naming_field(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["pipeline", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert field in err and "2 entries" in err
        assert "Traceback" not in err

    # Configs no stage can run, or whose arrays could not fit, are rejected
    # before any work starts.
    @pytest.mark.parametrize(
        "config,field",
        [
            ({"scene": {"image_width": 100}}, "image_width"),
            ({"scene": {"image_width": 250}}, "image_width"),
            ({"bins": {"bin_size": 1e-9}}, "bin_size"),
            ({"bins": {"bin_size": 1e-4}}, "bin_size"),
            ({"bins": {"d_max": 1e308, "bin_size": 1e-10}}, "bin_size"),
            ({"bev": {"grid_h": 1_000_000}}, "grid_h"),
            ({"context_channels": 100_000_000}, "context_channels"),
            ({"scene": {"image_height": 2560}, "context_channels": 1200}, "context_channels"),
            ({"scene": {"n_frames": 100_000_000}}, "n_frames"),
            ({"scene": {"n_cameras": 6}}, "n_cameras"),
            ({"soft_label_noise": 1.5}, "soft_label_noise"),
        ],
        ids=[
            "width-100",
            "width-250",
            "bins-too-many",
            "depth-cells-x-bins",
            "bins-overflow",
            "bev-grid",
            "channels",
            "stride-4-level",
            "frames",
            "cameras",
            "noise-above-1",
        ],
    )
    def test_config_rejected_before_work_exits_1(self, tmp_path, capsys, config, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    # A subnormal BEV range or bin width holds no point, so the result is empty;
    # the index math must get there without an out-of-range int64 cast.
    @pytest.mark.parametrize(
        "config",
        [
            {"bev": {"range_xy": 1e-320}},
            {"bins": {"d_min": 1e-300, "d_max": 1e-299, "bin_size": 1e-300}},
        ],
        ids=["bev-range", "bin-width"],
    )
    def test_subnormal_range_gives_empty_result_without_warning(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == "cc2c6534ff419035083d89d2e2625a0f625a6235d3ca7463c68deb9c5776ba00"
        assert json.loads(captured.out)["included_cells"] == 0
        assert "Warning" not in captured.err

    def test_negative_seed_flag_exits_1(self, capsys):
        assert main(["pipeline", "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pipeline", "--config", str(bad)]) == 1

    def test_csv_summary(self, pipe_cfg_path, capsys):
        rc = main(["pipeline", "--config", str(pipe_cfg_path), "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("loss,included_cells,total_boxes")
        assert len(lines) == 2

    def test_out_writes_occupancy_rasters(self, pipe_cfg_path, tmp_path, capsys):
        out = tmp_path / "bev"
        rc = main(["pipeline", "--config", str(pipe_cfg_path), "--out", str(out)])
        assert rc == 0
        img = read_pgm16(out / "occupancy_teacher.pgm")
        assert img.shape == (128, 128)
        occ = load_array(out / "occupancy_student")
        assert occ.shape == (128, 128)


class TestSweepCommand:
    def test_four_rows_csv(self, pipe_cfg_path, capsys):
        rc = main(
            ["sweep", "--config", str(pipe_cfg_path), "--toggles", "fc,ppa", "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        assert [l.split(",")[0] for l in lines[1:]] == ["(base)", "fc", "ppa", "fc+ppa"]

    def test_json_rows(self, pipe_cfg_path, capsys):
        assert main(["sweep", "--config", str(pipe_cfg_path), "--toggles", "fc"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["toggles"] for r in rows] == [[], ["fc"]]

    @pytest.mark.parametrize("toggles", ["msfe", "fc,fc"])
    def test_unknown_toggle_exits_1(self, pipe_cfg_path, capsys, toggles):
        rc = main(["sweep", "--config", str(pipe_cfg_path), "--toggles", toggles])
        assert rc == 1
        captured = capsys.readouterr()
        assert repr(toggles.split(",")[0]) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestCsvMatchesJson:
    """Each CSV cell is str() of the matching field in the same command's JSON output."""

    @staticmethod
    def _outputs(argv, capsys):
        assert main(argv + ["--format", "csv"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        columns = tuple(header.split(","))
        rows = [dict(zip(columns, line.split(","))) for line in lines]
        assert main(argv + ["--format", "json"]) == 0
        return columns, rows, json.loads(capsys.readouterr().out)

    @staticmethod
    def _assert_cells(row, fields, columns):
        assert len(row) == len(columns)
        for col in columns:
            assert row[col] == str(fields[col]), col

    def test_pipeline(self, pipe_cfg_path, capsys):
        argv = ["pipeline", "--config", str(pipe_cfg_path), "--seed", "0"]
        columns, rows, result = self._outputs(argv, capsys)
        assert columns == RESULT_CSV_COLUMNS and len(rows) == 1
        fields = {**result, **result["pci_report"]}
        fields.update({f"msfe_{k}": v for k, v in result["msfe"].items()})
        self._assert_cells(rows[0], fields, columns)

    def test_sweep(self, pipe_cfg_path, capsys):
        argv = ["sweep", "--config", str(pipe_cfg_path), "--toggles", "fc,ppa", "--seed", "0"]
        columns, rows, results = self._outputs(argv, capsys)
        assert columns == SWEEP_CSV_COLUMNS and len(rows) == len(results) == 4
        for row, result in zip(rows, results):
            fields = {**result, **result["pci_report"]}
            fields["toggles"] = "+".join(result["toggles"]) or "(base)"
            self._assert_cells(row, fields, columns)

    def test_pci_stats(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SCENE_CFG))
        assert main(["gen-scene", "--config", str(cfg), "--out", str(tmp_path), "--seed", "0"]) == 0
        capsys.readouterr()
        argv = ["pci-stats", "--scene", str(tmp_path / "scene.json")]
        columns, rows, report = self._outputs(argv, capsys)
        assert columns == PCI_CSV_COLUMNS and len(rows) == 1
        self._assert_cells(rows[0], report, columns)


class TestSelfcheckCommand:
    def test_quick_passes(self, capsys):
        assert main(["selfcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "oracle suites passed" in out

    def test_negative_seed_exits_1_naming_flag(self, capsys):
        assert main(["selfcheck", "--quick", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]
EDGE_STRINGS = ["", "caf\u00e9", "\u2028\U0001f600", "\x00\x1f\"\\\n\t"]


def _float_row(draw_args):
    # A row of finite floats with at most one intruder (an int, a NaN, ...),
    # which must send the row off the all-float fast path.
    row, intruder, pos = draw_args
    return row[:pos] + intruder + row[pos:]


FLOAT_ROWS = st.tuples(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
    st.sampled_from([[], [7], [math.nan], [-math.inf], [True], [None], [2**70]]),
    st.integers(0, 12),
).map(_float_row)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**63) - 1),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.sampled_from(EDGE_STRINGS),
)

JSON_VALUES = st.recursive(
    st.one_of(SCALARS, FLOAT_ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(EDGE_STRINGS)), children, max_size=5),
    ),
    max_leaves=25,
)


class TestDump:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    @example([0.5, 7, 1.5])
    @example([0.5, math.nan, 1.5])
    @example({"a": (1.0, -0.0), "b": [], "c": {}, "d": ()})
    @example([[5e-324, 1e16], [2**64, -(2**64)], EDGE_FLOATS, EDGE_STRINGS])
    def test_matches_json_dumps(self, obj):
        assert _dump(obj) == _oracle(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {1: 2.0},
            {(1, 2): 3},
            {"a": np.int64(3)},
            [1.0, np.int64(3)],
            [np.float32(1.0)],
        ],
        ids=["int-key", "tuple-key", "np-int64-value", "np-int64-in-float-row", "np-float32"],
    )
    def test_unsupported_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            _dump(obj)


class TestJsonStdout:
    """Every JSON-emitting command prints json.dumps(..., sort_keys=True, indent=2) + newline."""

    @staticmethod
    def _assert_canonical(out: str):
        assert out == _oracle(json.loads(out)) + "\n"

    def test_scene_commands(self, scene_path, tmp_path, capsys):
        capsys.readouterr()
        for argv in (
            ["gen-scene", "--out", str(tmp_path / "g"), "--seed", "5"],
            ["labels", "--scene", str(scene_path), "--out", str(tmp_path / "l")],
            ["pci-stats", "--scene", str(scene_path)],
            ["heatmap", "--scene", str(scene_path), "--out", str(tmp_path / "h")],
        ):
            assert main(argv) == 0
            self._assert_canonical(capsys.readouterr().out)

    def test_pipeline_timing_and_sweep(self, pipe_cfg_path, capsys):
        for argv in (
            ["pipeline", "--config", str(pipe_cfg_path), "--timing"],
            ["sweep", "--config", str(pipe_cfg_path), "--toggles", "fc,ppa"],
        ):
            assert main(argv) == 0
            self._assert_canonical(capsys.readouterr().out)


class TestUsability:
    @pytest.mark.parametrize(
        "cmd",
        ["gen-scene", "labels", "pci-stats", "heatmap", "pipeline", "sweep", "selfcheck"],
    )
    def test_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        assert "--help" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["labels"]) == 1


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                     "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


def test_main_serves_large_arrays_from_the_heap(capsys):
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("needs glibc >= 2.33")
    libc.mallinfo2.restype = _MallInfo2
    assert main(["--help"]) == 0
    mapped = libc.mallinfo2().hblks
    block = np.ones(3 << 20)  # 24 MiB, below the 32 MiB mmap threshold main sets
    assert libc.mallinfo2().hblks == mapped
    del block


class TestArrayIO:
    def test_occupancy_scaling(self):
        from fgbev.arrayio import occupancy_to_u16

        occ = np.array([[0.0, 2.0], [4.0, 1.0]])
        out = occupancy_to_u16(occ)
        assert out[1, 0] == 65535
        assert out[0, 1] == 32768  # rounds half to even on 32767.5
        assert not occupancy_to_u16(np.zeros((2, 2))).any()

    def test_pgm_roundtrip(self, tmp_path):
        arr = (np.arange(12, dtype=np.uint16) * 1000).reshape(3, 4)
        path = tmp_path / "x.pgm"
        write_pgm16(path, arr)
        assert np.array_equal(read_pgm16(path), arr)

    def test_pgm_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="uint16"):
            write_pgm16(tmp_path / "x.pgm", np.zeros((2, 2)))

    def test_flat_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(0, 1, (4, 5, 2))
        save_array(tmp_path / "grid", arr)
        assert np.array_equal(load_array(tmp_path / "grid"), arr)
        header = json.loads((tmp_path / "grid.json").read_text())
        assert header["shape"] == [4, 5, 2]
