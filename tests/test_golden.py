"""Pinned sha256 digests of `fgbev` stdout at seed 0, and of the scene files it writes.

Any change to an output byte changes its digest. A change that alters results
on purpose updates the digest here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from fgbev.cli import main
from fgbev.pipeline import config_from_dict, run_pipeline
from fgbev.scene import load_scene, save_scene

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
# blur encoder: the only pin on the box-blur path.
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
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--seed", "0"]) == 0
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
}


@pytest.mark.parametrize("name", sorted(SCENE_FILE_GOLDEN))
def test_scene_file_digest_and_resave(name, tmp_path, capsys):
    seed, config, digest = SCENE_FILE_GOLDEN[name]
    argv = ["gen-scene", "--out", str(tmp_path), "--seed", str(seed)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 0
    written = (tmp_path / "scene.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest
    # save -> load -> save reproduces the file byte for byte.
    save_scene(load_scene(tmp_path / "scene.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == written
