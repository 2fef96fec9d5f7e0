"""Acceptance suite: every criterion at its stated tolerance.

Run `pytest -v -s tests/test_acceptance.py` to see one line per criterion;
each test prints its verdict after the assertions it depends on.
"""

import json
import math
import time

import numpy as np

from fgbev import oracles
from fgbev.cli import build_parser, main
from fgbev.distill import (
    BoxBlurEncoder,
    IdentityEncoder,
    distillation_loss,
    encode_joint,
    loss_gradient_check,
)
from fgbev.geometry import Box3D, box_corner_pixels, box_point_counts, visible_corner_rects
from fgbev.labels import DepthBinConfig, generate_hard_labels, merge_labels
from fgbev.msfe import (
    Box2D,
    FeaturePyramid,
    ForegroundHeatmap,
    downsample,
    elliptical_gaussian_heatmap,
    msfe_fuse,
    threshold_filter,
)
from fgbev.pci import (
    frame_combination,
    inject_pseudo_points,
    pci_statistics,
    pseudo_point_assignment,
)
from fgbev.pipeline import PipelineConfig, run_pipeline
from fgbev.scene import SceneConfig, generate_scene
from fgbev.selfcheck import (
    random_bev_grid,
    random_camera,
    random_hard_labels,
    random_lift_frustum,
    random_soft_labels,
    random_sparse_grid,
)
from fgbev.view_transform import (
    BevFeatureGrid,
    BevGridConfig,
    ContextFeatureMap,
    sa_bev_pool,
)


def assign(counts, boxes, cam, depth_range):
    """pseudo_point_assignment on the boxes' own projection in cam."""
    rects, near = visible_corner_rects(*box_corner_pixels(cam, boxes))
    return pseudo_point_assignment(counts, boxes, rects, near, cam, depth_range)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_pooling_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    cases = 1000
    for _ in range(cases):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        n_bins = int(rng.integers(2, 9))
        channels = int(rng.integers(1, 4))
        bin_cfg = DepthBinConfig(1.0, 1.0 + 2.0 * n_bins, 2.0)
        bev = BevGridConfig(
            range_xy=float(rng.uniform(5, 25)),
            grid_h=int(rng.integers(4, 33)),
            grid_w=int(rng.integers(4, 33)),
            z_range=(-4.0, 4.0),
        )
        frustum = random_lift_frustum(rng, h, w, bin_cfg)
        ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, channels)))
        depth, seg = random_soft_labels(rng, h, w, bin_cfg)
        thr = float(rng.uniform(0.0, 0.9))
        got = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
        worst = max(worst, np.abs(got.values - want).max())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"pooling deviates from the oracle by {worst:.3e}"
    assert elapsed < 60.0, f"{cases} cases took {elapsed:.1f}s"
    report(1, f"pooling matches triple-loop oracle on {cases} cases "
              f"(max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_label_merge_exactness():
    rng = np.random.default_rng(1002)
    bin_cfg = DepthBinConfig(1.0, 9.0, 2.0)
    for _ in range(500):
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        hard = random_hard_labels(rng, h, w, bin_cfg)
        soft_d, soft_s = random_soft_labels(rng, h, w, bin_cfg)
        got_d, got_s = merge_labels(hard, soft_d, soft_s)
        want_d, want_s = oracles.merge_reference(hard, soft_d, soft_s)
        assert np.array_equal(got_d.values, want_d)
        assert np.array_equal(got_s.values, want_s)

    # Degenerate masks.
    from fgbev.labels import HardLabels

    h, w = 4, 6
    all_true = HardLabels(np.ones((h, w), dtype=np.int64), np.ones((h, w), dtype=bool), bin_cfg)
    soft_d, soft_s = random_soft_labels(rng, h, w, bin_cfg)
    d, s = merge_labels(all_true, soft_d, soft_s)
    assert np.array_equal(d.values, all_true.one_hot())
    assert np.array_equal(s.values, np.ones((h, w)))

    all_false = HardLabels(np.full((h, w), -1), np.zeros((h, w), dtype=bool), bin_cfg)
    d, s = merge_labels(all_false, soft_d, soft_s)
    assert np.array_equal(d.values, soft_d.values)
    assert np.array_equal(s.values, soft_s.values)
    report(2, "merged labels bitwise-equal selection oracle on 500 masks "
              "plus both degenerate cases")


def test_criterion_03_distillation_loss_properties():
    rng = np.random.default_rng(1003)
    cfg = BevGridConfig(range_xy=8.0, grid_h=5, grid_w=7)

    t = random_bev_grid(rng, cfg, 3)
    loss, _ = distillation_loss(t, t)
    assert loss == 0.0

    one = BevGridConfig(range_xy=1.0, grid_h=1, grid_w=1)
    single, count = distillation_loss(
        BevFeatureGrid.from_values(np.array([[[3.0, 4.0]]]), one),
        BevFeatureGrid.from_values(np.array([[[0.0, 0.0]]]), one),
    )
    assert abs(single - 1.0) < 1e-12 and count == 1

    t = random_bev_grid(rng, cfg, 3)
    s = random_bev_grid(rng, cfg, 3)
    base, _ = distillation_loss(t, s)
    for c in (1e-3, 1.0, 1e3):
        scaled, _ = distillation_loss(
            BevFeatureGrid.from_values(c * t.values, cfg),
            BevFeatureGrid.from_values(c * s.values, cfg),
        )
        assert abs(scaled - base) < 1e-9

    worst = 0.0
    for _ in range(100):
        t = random_bev_grid(rng, cfg, 3)
        # Well-separated student: every cell offset by a norm in [0.5, 1.5].
        offset = rng.normal(0, 1, t.values.shape)
        offset /= np.linalg.norm(offset, axis=2, keepdims=True)
        offset *= rng.uniform(0.5, 1.5, (cfg.grid_h, cfg.grid_w, 1))
        s = BevFeatureGrid.from_values(t.values + offset, cfg)
        res = loss_gradient_check(t, s, h=1e-5)
        assert res.checked_components > 0
        worst = max(worst, res.max_rel_error)
    assert worst < 1e-5, f"gradient rel err {worst:.3e}"
    report(3, f"loss identities exact; gradient max rel err {worst:.2e} "
              "over 100 well-separated grids")


def test_criterion_04_self_distillation_fixed_point():
    cfg = PipelineConfig(
        scene=SceneConfig(
            n_boxes=8,
            lidar_rays_per_box=0,
            clutter_points=0,
            image_width=256,
            image_height=128,
        ),
        ppa_enabled=False,
        seed=44,
    )
    result = run_pipeline(cfg)
    assert result.loss == 0.0
    assert np.array_equal(result.bev_occupancy_student, result.bev_occupancy_teacher)
    report(4, "no LiDAR + PPA off gives loss exactly 0 (teacher equals student)")


def test_criterion_05_perfect_label_convergence():
    cfg = PipelineConfig(
        scene=SceneConfig(
            n_boxes=10,
            lidar_rays_per_box=64,
            clutter_points=64,
            dropout_fraction=0.0,
            image_width=256,
            image_height=128,
        ),
        soft_label_noise=0.0,
        fc_enabled=False,
        ppa_enabled=False,
        seed=45,
    )
    result = run_pipeline(cfg)
    assert result.loss < 1e-3, f"loss {result.loss}"
    report(5, f"noise-free soft labels with full coverage give loss {result.loss:.2e} < 1e-3")


def test_criterion_06_pci_monotonicity_and_bookkeeping():
    # Clutter-free scenes: with no background returns, the coverage guarantee
    # after injection is exact (see decisions ledger on the precedence rule).
    scene_cfg = SceneConfig(
        n_frames=3,
        n_boxes=10,
        lidar_rays_per_box=12,
        clutter_points=0,
        dropout_fraction=0.3,
        stationary_fraction=0.6,
        image_width=256,
        image_height=128,
    )
    bin_cfg = DepthBinConfig()
    strict_decrease = 0
    emitted_total = 0
    for seed in range(50):
        scene = generate_scene(scene_cfg, seed)
        cam = scene.current.cameras[0]
        combined = frame_combination(scene.current, scene.past)
        before = box_point_counts(scene.current.boxes, scene.current.lidar.points)
        after = box_point_counts(scene.current.boxes, combined.points)
        pseudo = assign(
            after, scene.current.boxes, cam, (bin_cfg.d_min, bin_cfg.d_max)
        )
        report_ = pci_statistics(before, after, pseudo)
        assert report_.boxes_without_points_after_fc <= report_.boxes_without_points_before
        if report_.boxes_without_points_after_fc < report_.boxes_without_points_before:
            strict_decrease += 1
        assert (
            report_.boxes_assigned_pseudo + report_.boxes_unrecoverable
            == report_.boxes_without_points_after_fc
        )

        hard = generate_hard_labels(combined, scene.current.boxes, cam, bin_cfg, 16)
        injected = inject_pseudo_points(hard, pseudo, 16)
        for p in pseudo:
            emitted_total += 1
            box = scene.current.boxes[p.source_box]
            assert box.visibility in (3, 4)
            r, c = int(p.v // 16), int(p.u // 16)
            assert injected.valid_mask[r, c]
            assert injected.foreground[r, c]
    assert strict_decrease >= 1
    assert emitted_total > 0

    # Visibility gate, checked directly on a qualifying box.
    from fgbev.geometry import CameraModel, RigidTransform

    cam = CameraModel(100.0, 100.0, 120.0, 70.0, RigidTransform.identity(), 256, 256)
    visible = Box3D(center=(0, 0, 27), size=(9, 9, 9), yaw=0.0, visibility=4)
    assert assign([0], [visible], cam, (1.0, 60.0))
    for vis in (1, 2):
        gated = Box3D(center=(0, 0, 27), size=(9, 9, 9), yaw=0.0, visibility=vis)
        assert assign([0], [gated], cam, (1.0, 60.0)) == []
    report(6, f"50 scenes: monotone coverage ({strict_decrease} strict), exact "
              f"bookkeeping, {emitted_total} pseudo points all foreground, "
              "visibility<=2 never assigned")


def test_criterion_07_pseudo_point_equation_exactness():
    rng = np.random.default_rng(1007)
    emitted = 0
    worst = 0.0
    while emitted < 200:
        cam = random_camera(rng, width=256, height=160)
        box = Box3D(
            center=rng.uniform((-12, -12, 4), (12, 12, 60)),
            size=tuple(rng.uniform(0.5, 7, 3)),
            yaw=rng.uniform(-math.pi, math.pi),
            visibility=4,
        )
        got = assign([0], [box], cam, (0.5, 200.0))
        if not got:
            continue
        emitted += 1
        want = oracles.pseudo_point_reference(cam, box)
        for have, ref in zip((got[0].u, got[0].v, got[0].depth), want):
            rel = abs(have - ref) / max(1.0, abs(ref))
            worst = max(worst, rel)
    assert worst < 1e-12, f"pseudo point deviates by rel {worst:.3e}"
    report(7, f"200 emitted pseudo points match the 8-corner oracle "
              f"(max rel err {worst:.2e})")


def test_criterion_08_msfe_algebra():
    rng = np.random.default_rng(1008)
    pyr = FeaturePyramid(
        rng.normal(0, 1, (16, 24, 3)),
        rng.normal(0, 1, (8, 12, 3)),
        rng.normal(0, 1, (4, 6, 3)),
    )
    zero = ForegroundHeatmap(np.zeros((16, 24)))
    fused = msfe_fuse(pyr, zero, 0.1)
    assert np.array_equal(fused, pyr.f16)

    ones = ForegroundHeatmap(np.ones((16, 24)))
    want = pyr.f16 + downsample(pyr.f8, 2) + downsample(pyr.f4, 4)
    assert np.abs(msfe_fuse(pyr, ones, 0.0) - want).max() < 1e-12

    worst = 0.0
    for _ in range(50):
        hm = ForegroundHeatmap(rng.uniform(0, 1, (16, 24)))
        beta = float(rng.uniform(0, 0.8))
        got = msfe_fuse(pyr, hm, beta)
        ref = oracles.msfe_fuse_reference(pyr, hm, beta)
        worst = max(worst, np.abs(got - ref).max())
    assert worst < 1e-12

    hm = ForegroundHeatmap(rng.uniform(0, 1, (16, 24)))
    once = threshold_filter(hm, 0.37)
    assert np.array_equal(threshold_filter(once, 0.37).values, once.values)

    # The 0.1 default reaches the fusion path end to end.
    assert PipelineConfig().beta == 0.1
    parser_default = build_parser().parse_args(
        ["heatmap", "--scene", "x", "--out", "y"]
    ).beta
    assert parser_default == 0.1
    filtered = threshold_filter(hm, PipelineConfig().beta)
    assert not filtered.values[hm.values < 0.1].any()
    assert np.array_equal(
        filtered.values[hm.values >= 0.1], hm.values[hm.values >= 0.1]
    )
    report(8, f"fusion algebra exact (max random-case err {worst:.2e}); "
              "threshold idempotent; beta=0.1 default honored")


def test_criterion_09_heatmap_geometry():
    # Box centered at pixel (40, 32) = cell (8, 10), sigma = (2, 1) cells.
    box = Box2D(16.0, 20.0, 64.0, 44.0)
    hm = elliptical_gaussian_heatmap([box], 20, 20, 4).values
    assert hm[8, 10] == 1.0
    assert abs(hm[8, 12] - math.exp(-0.5)) < 1e-3
    assert abs(hm[9, 10] - math.exp(-0.5)) < 1e-3

    width_px = 19 * 4
    mirrored = Box2D(width_px - box.x2, box.y1, width_px - box.x1, box.y2)
    hm_mirror = elliptical_gaussian_heatmap([mirrored], 20, 20, 4).values
    assert np.allclose(hm_mirror, np.fliplr(hm), atol=1e-12)
    report(9, "center cell 1.0, one-sigma offsets exp(-1/2), mirror symmetry exact")


def test_criterion_10_encoder_contract():
    # Sparse grids with -0.0 values and border cells, and an empty teacher every
    # fourth pair: the teacher equals the zero-padded full-grid oracle, and the
    # student the oracle of the full student at every teacher cell.
    rng = np.random.default_rng(1010)
    cfg = BevGridConfig(range_xy=8.0, grid_h=6, grid_w=9)
    for encoder in (IdentityEncoder(), BoxBlurEncoder()):
        for k in range(100):
            s = random_sparse_grid(rng, cfg, 4)
            t = random_sparse_grid(rng, cfg, 4)
            if k % 4 == 0:
                t = BevFeatureGrid(np.zeros(0, np.int64), np.zeros((0, 4)), cfg)
            js, jt = encode_joint(encoder, s, t)
            full = np.stack([s.values, t.values])
            if encoder.name == "box_blur":
                full = oracles.box_blur_reference(full)
            assert jt.values.tobytes() == full[1].tobytes()
            at = jt.cells
            assert js.values.reshape(-1, 4)[at].tobytes() == full[0].reshape(-1, 4)[at].tobytes()
    report(10, "teacher encoding, and student encoding at every teacher cell, bitwise-equal "
               "to the zero-padded full-grid oracle for both encoders on 100 grid pairs each")


def test_criterion_11_determinism_and_performance(tmp_path, capsys):
    # Default geometry: one 704x256 camera, stride 16, 118 bins, 128x128 BEV.
    cfg = PipelineConfig(seed=11)
    assert cfg.bins.n_bins == 118
    result = run_pipeline(cfg)
    pooling_time = result.timing["student_pooling"] + result.timing["teacher_pooling"]
    assert pooling_time < 2.0, f"pooling took {pooling_time:.2f}s"
    assert result.timing, "per-stage timings must be reported"

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 11, "scene": {"n_boxes": 8}}))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    first = capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.out.encode() == second.out.encode()
    assert "[timing]" in first.err

    # Byte identity must also hold across separate processes, which import the
    # fgbev this test imported whether or not it is installed.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(oracles.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "fgbev.cli", "pipeline", "--config", str(cfg_path)]
    runs = [
        subprocess.run(cmd, capture_output=True, check=True, env=env).stdout for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] == first.out.encode()
    report(11, f"byte-identical pipeline JSON across runs and processes; pooling "
               f"stage {pooling_time * 1000:.0f} ms < 2 s on the default 128x128 grid")


def test_criterion_12_config_defaults():
    bev = BevGridConfig()
    assert bev.range_xy == 51.2
    assert (bev.grid_h, bev.grid_w) == (128, 128)
    assert bev.z_range == (-5.0, 3.0)
    scene = SceneConfig()
    assert scene.detection_range_xy == 51.2
    assert scene.frame_interval == 0.5
    report(12, "detection region, BEV grid and frame interval defaults verified")
