"""Pinned sha256 digests of `fgbev` stdout at seed 0, and of the scene files it writes.

Any change to an output byte changes its digest. A change that alters results
on purpose updates the digest here and says why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fgbev.cli import main
from fgbev.pipeline import config_from_dict, run_pipeline
from fgbev.scene import load_scene, save_scene


def _config_argv(tmp_path, config):
    if config is None:
        return []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


def _digest(out: str, out_dir, files) -> str:
    """sha256 over stdout with the --out path replaced, then each file's name and sha256."""
    h = hashlib.sha256(out.replace(str(out_dir), "OUT").encode())
    for file in files:
        h.update(file.encode() + b"\0" + hashlib.sha256((out_dir / file).read_bytes()).digest())
    return h.hexdigest()


NOISELESS = {
    "scene": {
        "n_boxes": 6,
        "lidar_rays_per_box": 48,
        "clutter_points": 32,
        "image_width": 256,
        "image_height": 128,
    },
    "fc_enabled": False,
    "ppa_enabled": False,
    "soft_label_noise": 0.0,
}

GOLDEN = {
    "pipeline-default": (
        ["pipeline"],
        None,
        "c7ca11aec0133dc7c4786cbbb5832e425bc6f1ba767c37f0a4664b3f17c97974",
    ),
    "pipeline-dropout": (
        ["pipeline"],
        {"scene": {"dropout_fraction": 0.5}},
        "2c4d921798067e70ddc37d07348cbc4194ae23cd00510489318c89afbec6dee6",
    ),
    "pipeline-noiseless": (
        ["pipeline"],
        NOISELESS,
        "ff40dac4c94398f3e964a18033344ddbb5cc736daf18ae6749a4b0b1f9fe4c71",
    ),
    "sweep-fc-ppa": (
        ["sweep", "--toggles", "fc,ppa"],
        {"scene": {"dropout_fraction": 0.5, "n_frames": 4}},
        "a0c04563ed11c08636b30722899a8c6075c2d1bcac379fdc8b22e4b262c83cfa",
    ),
    # One toggle leaves fc on from the config; "ppa,fc" reverses the row order.
    "sweep-ppa": (
        ["sweep", "--toggles", "ppa"],
        {"scene": {"dropout_fraction": 0.5, "n_frames": 4}},
        "e3ab2bb8f0fcff2c7d2cee0f545f982ec32394fc68660cb6de2b0ec35cbf96c6",
    ),
    "sweep-ppa-fc": (
        ["sweep", "--toggles", "ppa,fc"],
        {"scene": {"dropout_fraction": 0.5, "n_frames": 4}},
        "f6da9ff25ff50519b84eb8955d2cc63a73cf645ac3b541bee2949cae8b279e09",
    ),
    # The CSV renderers do not go through the JSON writer; pin them apart.
    "pipeline-default-csv": (
        ["pipeline", "--format", "csv"],
        None,
        "183a7d55fa8082751dca5e91bafdf44a1a9915881883720dc0189651b21f99bc",
    ),
    "pipeline-dropout-csv": (
        ["pipeline", "--format", "csv"],
        {"scene": {"dropout_fraction": 0.5}},
        "ef5ed1b9e90a6959700089b119cc2f8ff796c4d051341b9b0582ba20cccb1037",
    ),
    "sweep-fc-ppa-csv": (
        ["sweep", "--toggles", "fc,ppa", "--format", "csv"],
        {"scene": {"dropout_fraction": 0.5, "n_frames": 4}},
        "789af317815d47057fa940153b035a087a3509a2fd1cbdc375e841e1f9ec3dfd",
    ),
    # 400 boxes spread over a 300 m range, 122 of them empty at the start: the
    # box-membership and ray-casting kernels see many boxes and many far ones.
    "pipeline-many-boxes": (
        ["pipeline"],
        {
            "scene": {
                "n_boxes": 400,
                "lidar_rays_per_box": 2,
                "clutter_points": 64,
                "detection_range_xy": 300,
                "dropout_fraction": 0.3,
            }
        },
        "43f5f1284bb713b660b5e9c2f992d82e4acc82a4250bc6194c230ad8f2e3075c",
    ),
    # The box blur on the default config (loss 0.04989, 64 included cells) and
    # on the dropout sweep (631, 312, 600 and 312 included cells).
    "pipeline-box-blur": (
        ["pipeline", "--encoder-kind", "box_blur"],
        None,
        "3dc453c272b0336f77348a836627d3fba871af5b3f68392b4c3c250ef797225f",
    ),
    "sweep-fc-ppa-box-blur": (
        ["sweep", "--toggles", "fc,ppa", "--encoder-kind", "box_blur"],
        {"scene": {"dropout_fraction": 0.5, "n_frames": 4}},
        "f87f3ea7b6496dfd115fd6575fa7a3b418f6b252f7831b6fe5b16c7897a19ee9",
    ),
    # Every feature cell passes the gate, so both poolings lift the whole
    # frustum (loss 0.99459, 2611 included cells).
    "pipeline-gate-all": (
        ["pipeline"],
        {"seg_threshold": 0.0},
        "2b229e3687879566749e97a1e2da786b47f00619608081a2210c18ccd5fa8c9e",
    ),
    # A one-cell grid and a non-square 3 x 5 grid: the occupancy rows at their
    # smallest and with more columns than rows.
    "pipeline-grid-1x1": (
        ["pipeline"],
        {"bev": {"grid_h": 1, "grid_w": 1}},
        "116a6cfdf6be783ffb3f0c97f7d3fbb0a1ce662ff8a5ecca80263992d13d9618",
    ),
    "pipeline-grid-3x5": (
        ["pipeline"],
        {"bev": {"grid_h": 3, "grid_w": 5}},
        "ea1002c1edbea1f42ae792bf9b0201abf8d0f9f6e7022ec2dec431035061787a",
    ),
}

# The foreground gate inside its range. At the default noise the soft seg is
# bimodal and every threshold between its modes gives one result; at noise 1.0
# the values spread out. Loss and included cells per threshold: 0.1 -> 12.617,
# 2478; 0.2 -> 12.813, 2215; 0.3 -> 5.569, 1052; 0.5 -> 0.981, 10; 0.9 -> 0.985,
# 10; 1.0 -> 0.991, 10. Eight soft-seg cells are exactly 1.0, so the 1.0 entry
# pins the comparison as `>=`.
GATE_DIGESTS = {
    0.1: "3071fadadcce16d46c1a3f7d5b0e94276f61b24cf0e1af3899a68f24f43aba89",
    0.2: "b5ec1bde22304026d5f2f1bcdb04acbc1f66e424285669a6cd9f719198f5e600",
    0.3: "b08a71a10c93c2af761b49235b12d05d8bf94711bb37b425b66ae6cdc7cabcd7",
    0.5: "a0c182d4d02fd56442fe59582584fada9f1b8e75964440b410156971301276e6",
    0.9: "0050ca364fc5e293b1a17094535b1951d02335eb319357dedecb1b60d7663b97",
    1.0: "2a44891a307570964d94ded712104620ac1e3b79f332dd13d3dc12df7b5fcb9b",
}
GOLDEN |= {
    f"pipeline-gate-{t}": (["pipeline"], {"soft_label_noise": 1.0, "seg_threshold": t}, digest)
    for t, digest in GATE_DIGESTS.items()
}


# 40 boxes, 1408x512 images, 9 frames, a 256^2 grid, 16 channels and the box
# blur encoder: the box blur on a large grid.
LARGE = {
    "scene": {"n_boxes": 40, "image_width": 1408, "image_height": 512, "n_frames": 9},
    "bev": {"grid_h": 256, "grid_w": 256},
    "context_channels": 16,
    "encoder_kind": "box_blur",
}
LARGE_DIGEST = "fc6b05d699cb88e8b6f8b5a78a274c9f13a7e9bb36526837268c7741e810cef0"


# pci-stats on the seed-0 scene with dropout_fraction 0.5, where the CSV row
# reads 12,5,3,1,2: 12 boxes, 5 empty, 3 still empty after frame combination,
# 1 given pseudo points and 2 unrecoverable.
PCI_STATS_GOLDEN = {
    "csv": "1f4183c58b392dce243953149b377529837a8fb5aa09a9bd309601b75bfa4b22",
    "json": "97bda63e8b3664af33ed3a08181dd3f3e6722df57558071fd0a19172170a2321",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, tmp_path, capsys):
    argv, config, digest = GOLDEN[name]
    assert main(argv + _config_argv(tmp_path, config) + ["--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", sorted(PCI_STATS_GOLDEN))
def test_pci_stats_digest(fmt, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dropout_fraction": 0.5}))
    assert main(["gen-scene", "--config", str(config), "--out", str(tmp_path), "--seed", "0"]) == 0
    capsys.readouterr()
    assert main(["pci-stats", "--scene", str(tmp_path / "scene.json"), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PCI_STATS_GOLDEN[fmt]


def test_large_result_digest():
    out = run_pipeline(config_from_dict(LARGE)).to_dict()
    # msfe.fused_l2 changes in its last bits with the BLAS thread count.
    del out["msfe"]["fused_l2"]
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_DIGEST


# sha256 of the scene.json that `gen-scene` writes. "empty-3-cameras" covers
# empty clouds (no boxes, no clutter) and three cameras. "crowded" packs 100
# boxes into a 40 m range, so placement rejects many candidates (7,514 clash
# distances at seed 0); "3-cameras" has boxes at all four visibility levels.
# "dropout-0.5" leaves 5 of 12 boxes empty in the current frame, so that
# frame's surface draws skip them; "rays-1" and "rays-0" pin one return per box
# and none; "lib-large" is the lib-large benchmark's scene.
CROWDED = {"n_boxes": 100, "detection_range_xy": 40}
SCENE_FILE_GOLDEN = {
    "seed-0": (0, None, "4c1f4513361c5111db5006579f4a8b38513bf642b36fa71775931eae1676171c"),
    "seed-3": (3, None, "74a80d831fe44481a0c742e0140558a934d987455a19ad5e64c95ace47268a77"),
    "seed-11": (11, None, "ed5395abc6d5d495fb69498eef2ca9edca7c50568d76dae414bd2cfd042dae92"),
    "empty-3-cameras": (
        0,
        {
            "n_boxes": 0,
            "clutter_points": 0,
            "n_cameras": 3,
            "n_frames": 4,
            "dropout_fraction": 1.0,
        },
        "c0291b5ae8382e978d2c0ff391eda8a56100083cd886db4d0c321dec15d599f0",
    ),
    "crowded-seed-0": (
        0,
        CROWDED,
        "f1887d98d2f5a9738e7143fae63b1fb4ed29243621d44bcdfb377c5f9f5e55cc",
    ),
    "crowded-seed-5": (
        5,
        CROWDED,
        "71c321c1bac56ffcf13bcfd6289efc4b18608c5a60a6b0870f9e0ecd47133bb0",
    ),
    "3-cameras": (
        0,
        {"n_cameras": 3, "n_boxes": 40, "n_frames": 3},
        "11f64a87e7d4e654e2631c3eaa45a1fb06dd3f3fcbefbf835035edeab7e0ce82",
    ),
    "dropout-0.5": (
        0,
        {"dropout_fraction": 0.5},
        "df6158c9c509587874f02ef7c9d6129fd1c4db0a78a0f5587fa60d9467406d67",
    ),
    "rays-1": (
        0,
        {"lidar_rays_per_box": 1},
        "8d12128a2f707ec76146cfbe6fbc10d2aae23c8fd9d21fdc1dd8b10e17cc9f61",
    ),
    "rays-0": (
        0,
        {"lidar_rays_per_box": 0},
        "acfac8dacb58609b3c0cabf64f96498ae38c2be3b3aa23891e799ec7b922e0ec",
    ),
    "lib-large": (
        0,
        LARGE["scene"],
        "32ec42c1410aa84d10df6ad8ba776804a8a580abe2586419845ce63bb6fbf497",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENE_FILE_GOLDEN))
def test_scene_file_digest_and_resave(name, tmp_path, capsys):
    seed, config, digest = SCENE_FILE_GOLDEN[name]
    argv = ["gen-scene", "--out", str(tmp_path), "--seed", str(seed)]
    assert main(argv + _config_argv(tmp_path, config)) == 0
    written = (tmp_path / "scene.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest
    # save -> load -> save reproduces the file byte for byte.
    save_scene(load_scene(tmp_path / "scene.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == written


# `gen-scene` then `labels --bin` at seed 0: one digest over stdout (the --out
# path replaced) and every file written, per scene config and stride.
LABEL_FILES = ("depth.bin", "depth.json", "depth.pgm", "seg.bin", "seg.json", "seg.pgm", "valid.pgm")
# Valid and foreground cells: default 43 and 15 at stride 16, 64 and 32 at
# stride 8; dropout 0.5 gives 31 and 1, then 40 and 4.
LABELS_GOLDEN = {
    ("default", 16): (None, "cb67c11e717aa4d8547a8e2928043822dfeba2e73b32a2da0429ba4865c16374"),
    ("default", 8): (None, "dd6e670291a67c43404f8648606783f8a713ddd9fcc7c51843b3ba1e3eca6ff3"),
    ("dropout-0.5", 16): (
        {"dropout_fraction": 0.5},
        "c6a251e4a01915ccf9913e68482c11d4fba5596f8a305eaedfbdc1deff7c4199",
    ),
    ("dropout-0.5", 8): (
        {"dropout_fraction": 0.5},
        "a18a3f4d2c73cd3c9aa886c9fe9f92d72bf18f8e59efe6072742cd32d5135667",
    ),
}


@pytest.mark.parametrize("name,stride", sorted(LABELS_GOLDEN))
def test_labels_digest(name, stride, tmp_path, capsys):
    config, digest = LABELS_GOLDEN[name, stride]
    argv = ["gen-scene", "--out", str(tmp_path), "--seed", "0"] + _config_argv(tmp_path, config)
    assert main(argv) == 0
    capsys.readouterr()
    out = tmp_path / "labels"
    scene = str(tmp_path / "scene.json")
    assert main(["labels", "--scene", scene, "--out", str(out), "--stride", str(stride), "--bin"]) == 0
    assert _digest(capsys.readouterr().out, out, LABEL_FILES) == digest


# `gen-scene` stdout at seed 0, the --out path replaced (the scene file itself
# is pinned above), and `heatmap` on that scene with its two rasters.
GEN_SCENE_STDOUT = "e2d69bcaa60ed10bb6620f82d714a5998609a580c2cf763fca023e47a086104a"
HEATMAP_GOLDEN = "ef57bf37c7419d02e79e6f323485318023318269fe5de30761e011aef9605717"


def test_gen_scene_and_heatmap_digests(tmp_path, capsys):
    assert main(["gen-scene", "--out", str(tmp_path), "--seed", "0"]) == 0
    assert _digest(capsys.readouterr().out, tmp_path, ()) == GEN_SCENE_STDOUT
    out = tmp_path / "heatmap"
    assert main(["heatmap", "--scene", str(tmp_path / "scene.json"), "--out", str(out)]) == 0
    assert _digest(capsys.readouterr().out, out, ("s4.pgm", "s4_filtered.pgm")) == HEATMAP_GOLDEN


# `pipeline --out` at seed 0: stdout and the occupancy rasters and flat binaries.
OCCUPANCY_FILES = tuple(
    f"occupancy_{grid}.{ext}" for grid in ("student", "teacher") for ext in ("bin", "json", "pgm")
)
PIPELINE_OUT_GOLDEN = {
    "default": (None, "4b466d44104ee0a6c11daa49d34762c2c48ad1a1c869ed3aaa569e7100808948"),
    "grid-3x5": (
        {"bev": {"grid_h": 3, "grid_w": 5}},
        "f4df24ee60350c4dc1ea890c8ff6f96daebc6c2eab0b33137c5f3c7557b5a9ff",
    ),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_OUT_GOLDEN))
def test_pipeline_out_digest(name, tmp_path, capsys):
    config, digest = PIPELINE_OUT_GOLDEN[name]
    out = tmp_path / "bev"
    argv = ["pipeline", "--seed", "0", "--out", str(out)] + _config_argv(tmp_path, config)
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out, out, OCCUPANCY_FILES) == digest


# Cameras 1 and 2 of a 3-camera scene at seed 0 with dropout_fraction 0.5:
# `pci-stats` stdout, `heatmap` stdout and rasters, and `labels --bin` stdout
# and files. Every other golden uses camera 0, which assigns no pseudo point
# here; camera 1 assigns 4 and camera 2 assigns 3. Each camera draws 11 boxes.
PER_CAMERA_SCENE = {"n_cameras": 3, "n_boxes": 40, "n_frames": 3, "dropout_fraction": 0.5}
PER_CAMERA_GOLDEN = {
    (1, "pci-stats"): "010dd07d8983c03daaf2df72c5a4eb62363a2ad8379a56385d2b26a4703a5bd6",
    (1, "heatmap"): "c03d011dbaa81a35249ce519956421c30cb22bfe85e95be858adcff0f829a103",
    (1, "labels"): "878ce7eb3392b9abafa845d2b9d9ba5d6e355f88bea148f834523367eae3a0c1",
    (2, "pci-stats"): "f3204cbeb53a22d4c3fce4c6d51f58b30999b41f256597f4787718127efe38b6",
    (2, "heatmap"): "d104a3ca85ee3e0802434d1f6dced20fca6e8cc7df0ed2e60ad9fc212acda72c",
    (2, "labels"): "a1a573534903213fea6dfb83f29628b99836366ff502f42fc93e52c38679d2b1",
}
# Extra arguments of each command ("OUT" stands for its output directory) and the files it writes.
PER_CAMERA_ARGS = {
    "pci-stats": ([], ()),
    "heatmap": (["--out", "OUT"], ("s4.pgm", "s4_filtered.pgm")),
    "labels": (["--out", "OUT", "--bin"], LABEL_FILES),
}


@pytest.mark.parametrize("cam,command", sorted(PER_CAMERA_GOLDEN))
def test_per_camera_digest(cam, command, tmp_path, capsys):
    argv = ["gen-scene", "--out", str(tmp_path), "--seed", "0"]
    assert main(argv + _config_argv(tmp_path, PER_CAMERA_SCENE)) == 0
    capsys.readouterr()
    extra, files = PER_CAMERA_ARGS[command]
    out = tmp_path / command
    argv = [command, "--scene", str(tmp_path / "scene.json"), "--cam", str(cam)]
    assert main(argv + [str(out) if a == "OUT" else a for a in extra]) == 0
    assert _digest(capsys.readouterr().out, out, files) == PER_CAMERA_GOLDEN[cam, command]


# Goldens whose bytes must not depend on the BLAS thread count, rerun in a child
# process with two OpenBLAS threads (the parent may run with any count). They
# cover the batched box products: many boxes, visibility over three cameras,
# pseudo points from a camera other than 0, and lib-large's eight past frames
# in one frame-combination pass and nine frames of stacked box poses. The
# lib-large result digest leaves out msfe.fused_l2, which differs in its last
# bits between one and two threads.
THREAD_INDEPENDENT = (
    "test_stdout_digest[pipeline-many-boxes]",
    "test_scene_file_digest_and_resave[3-cameras]",
    "test_per_camera_digest[2-pci-stats]",
    "test_large_result_digest",
    "test_scene_file_digest_and_resave[lib-large]",
)


def test_goldens_hold_under_two_blas_threads():
    here = Path(__file__)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += [f"{here}::{name}" for name in THREAD_INDEPENDENT]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    done = subprocess.run(
        argv, cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert f"{len(THREAD_INDEPENDENT)} passed" in done.stdout
