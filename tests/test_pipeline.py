import collections
import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgbev.geometry
import fgbev.pipeline
import fgbev.scene
from fgbev.cli import main
from fgbev.geometry import Box2D, Box3D, box_point_counts, project_box3d_to_box2d
from fgbev.labels import DepthBinConfig, generate_hard_labels
from fgbev.msfe import elliptical_gaussian_heatmap
from fgbev.pci import frame_combination
from fgbev.pipeline import (
    SWEEP_TOGGLES,
    PipelineConfig,
    PipelineResult,
    PipelineStageError,
    ablation_sweep,
    config_from_dict,
    run_pipeline,
)
from fgbev.scene import SceneConfig, generate_scene
from fgbev.view_transform import BevGridConfig

SMALL_SCENE = SceneConfig(
    n_frames=3,
    n_boxes=8,
    lidar_rays_per_box=16,
    clutter_points=32,
    dropout_fraction=0.3,
    stationary_fraction=0.7,
    image_width=256,
    image_height=128,
)


# The stages run_pipeline times, whatever the fc/ppa toggles.
STAGES = {
    "generate_scene", "synth_features", "msfe", "soft_labels", "frustum", "student_pooling",
    "frame_combination", "hard_labels", "pseudo_points", "pci_report", "teacher_pooling",
    "encode", "distill_loss",
}


def failing_stage(*args, **kwargs):
    raise ValueError("injected failure")


def small_config(**overrides):
    kwargs = dict(scene=SMALL_SCENE, seed=17)
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class TestRunPipeline:
    def test_deterministic_across_runs(self):
        cfg = small_config()
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert a.loss == b.loss
        assert a.included_cells == b.included_cells
        assert a.pci_report == b.pci_report
        assert np.array_equal(a.bev_occupancy_student, b.bev_occupancy_student)
        assert np.array_equal(a.bev_occupancy_teacher, b.bev_occupancy_teacher)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize(
        "fc, ppa", [(False, False), (True, False), (False, True), (True, True)],
        ids=["none", "fc", "ppa", "fc-ppa"],
    )
    def test_all_stages_timed(self, fc, ppa):
        # A stage that reuses a prepared value still records its time.
        result = run_pipeline(small_config(fc_enabled=fc, ppa_enabled=ppa))
        assert set(result.timing) == STAGES
        assert all(t >= 0 for t in result.timing.values())

    def test_fixed_point_without_lidar(self):
        cfg = small_config(
            scene=dataclasses.replace(
                SMALL_SCENE, lidar_rays_per_box=0, clutter_points=0, dropout_fraction=0.0
            ),
            ppa_enabled=False,
        )
        result = run_pipeline(cfg)
        assert result.loss == 0.0
        assert np.array_equal(result.bev_occupancy_student, result.bev_occupancy_teacher)

    def test_perfect_soft_labels_converge(self):
        cfg = small_config(
            scene=dataclasses.replace(
                SMALL_SCENE, dropout_fraction=0.0, lidar_rays_per_box=48
            ),
            soft_label_noise=0.0,
            fc_enabled=False,
            ppa_enabled=False,
        )
        assert run_pipeline(cfg).loss < 1e-3

    def test_noise_separates_teacher_from_student(self):
        result = run_pipeline(small_config(soft_label_noise=0.2))
        assert result.loss > 0.0
        assert result.included_cells > 0

    def test_stage_isolation_of_pci(self):
        on = run_pipeline(small_config())
        off = run_pipeline(small_config(fc_enabled=False, ppa_enabled=False))
        assert np.array_equal(on.bev_occupancy_student, off.bev_occupancy_student)

    def test_added_points_never_reduce_valid_cells(self):
        bin_cfg = DepthBinConfig()
        for seed in range(5):
            scene = generate_scene(SMALL_SCENE, seed)
            cam = scene.current.cameras[0]
            raw = generate_hard_labels(
                scene.current.lidar, scene.current.boxes, cam, bin_cfg, 16
            )
            combined = frame_combination(scene.current, scene.past)
            dense = generate_hard_labels(combined, scene.current.boxes, cam, bin_cfg, 16)
            assert dense.valid_mask.sum() >= raw.valid_mask.sum()
            assert np.all(dense.valid_mask | ~raw.valid_mask)

    def test_teacher_mass_concentrates_near_boxes(self):
        # With exact soft labels every pooled contribution sits on a box
        # surface (measured, ray-cast, or corner-depth pseudo), so occupied
        # BEV cells must lie within each source box's footprint reach.
        cfg = small_config(
            scene=dataclasses.replace(SMALL_SCENE, dropout_fraction=0.3),
            soft_label_noise=0.0,
        )
        result = run_pipeline(cfg)
        occ = result.bev_occupancy_teacher
        assert occ.any()
        scene = generate_scene(cfg.scene, cfg.seed)
        boxes = scene.current.boxes
        bev = cfg.bev
        cell_h, cell_w = bev.cell_size
        rows, cols = np.nonzero(occ > 1e-12)
        for r, c in zip(rows, cols):
            x = -bev.range_xy + (c + 0.5) * cell_w
            y = -bev.range_xy + (r + 0.5) * cell_h
            slack = min(
                np.hypot(*(np.asarray(b.center[:2]) - (x, y))) - np.hypot(*b.size[:2]) / 2
                for b in boxes
            )
            assert slack < 1.6, f"occupied cell ({r},{c}) is {slack:.2f} m off any box"

    def test_encoder_choice_changes_loss(self):
        ident = run_pipeline(small_config(encoder_kind="identity"))
        blur = run_pipeline(small_config(encoder_kind="box_blur"))
        assert ident.loss != blur.loss

    def test_stage_error_attribution(self, monkeypatch):
        monkeypatch.setattr(fgbev.pipeline, "synth_feature_pyramid", failing_stage)
        with pytest.raises(PipelineStageError, match="synth_features"):
            run_pipeline(small_config())

    def test_result_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            PipelineResult(
                loss=0.0,
                included_cells=100,
                pci_report=run_pipeline(small_config()).pci_report,
                bev_occupancy_student=np.zeros((3, 3)),
                bev_occupancy_teacher=np.zeros((3, 3)),
                msfe_metrics={},
                timing={},
            )


CONFIG_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 300),
        st.integers(min_value=2**63, max_value=2**20000).map(lambda n: -n if n % 2 else n),
        st.sampled_from([1e308, -1e308, 1e-320, math.nan, math.inf, -math.inf]),
        st.sampled_from([0, 1, 2, 16, 0.25, 0.5, True, "box_blur", [-5, 3]]),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda children: st.lists(children, max_size=4),
    max_leaves=6,
)


def _keys_of(cls, unknown):
    """A field name of cls, or now and then the unknown key."""
    return st.sampled_from([f.name for f in dataclasses.fields(cls)] * 4 + [unknown])


def _section(cls):
    return st.dictionaries(_keys_of(cls, "wobble"), CONFIG_VALUES, max_size=4)


CONFIG_DICTS = st.dictionaries(
    _keys_of(PipelineConfig, "wibble"),
    st.one_of(
        CONFIG_VALUES, _section(SceneConfig), _section(DepthBinConfig), _section(BevGridConfig)
    ),
    max_size=5,
)


def _keys(data):
    """Every dict key at any depth of data."""
    if isinstance(data, dict):
        return [k for key, value in data.items() for k in (key, *_keys(value))]
    return []


class TestConfig:
    def test_defaults_match_detection_geometry(self):
        cfg = PipelineConfig()
        assert cfg.bev.range_xy == 51.2
        assert (cfg.bev.grid_h, cfg.bev.grid_w) == (128, 128)
        assert cfg.bev.z_range == (-5.0, 3.0)
        assert cfg.bins.n_bins == 118
        assert cfg.beta == 0.1
        assert cfg.seg_threshold == 0.25

    def test_json_roundtrip(self):
        cfg = small_config(beta=0.2, encoder_kind="box_blur")
        data = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_dict(data) == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = config_from_dict({"seed": 5, "scene": {"n_boxes": 3}})
        assert cfg.seed == 5
        assert cfg.scene.n_boxes == 3
        assert cfg.scene.n_frames == SceneConfig().n_frames

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="wibble"):
            config_from_dict({"wibble": 1})
        with pytest.raises(ValueError, match="wobble"):
            config_from_dict({"scene": {"wobble": 2}})

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"scene": {"n_frames": "two"}}, "n_frames"),
            ({"beta": "high"}, "beta"),
            ({"scene": 42}, "scene"),
            ({"fc_enabled": "yes"}, "fc_enabled"),
            ({"seed": 1.5}, "seed"),
            ({"scene": {"n_boxes": True}}, "n_boxes"),
            ({"bev": {"z_range": [1, "b"]}}, "z_range"),
        ],
    )
    def test_wrong_json_types_named(self, data, field):
        with pytest.raises(ValueError, match=field):
            config_from_dict(data)

    def test_numeric_coercion_int_to_float(self):
        cfg = config_from_dict({"beta": 0, "bins": {"d_min": 2}})
        assert cfg.beta == 0.0 and isinstance(cfg.beta, float)
        assert cfg.bins.d_min == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=1.5),
            dict(seg_threshold=-0.1),
            dict(eps=0.0),
            dict(encoder_kind="mlp"),
            dict(soft_label_noise=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_python_built_configs_are_checked(self):
        with pytest.raises(ValueError, match="n_boxes"):
            SceneConfig(n_boxes=3.0)
        with pytest.raises(ValueError, match="fc_enabled"):
            PipelineConfig(fc_enabled=1)
        with pytest.raises(ValueError, match="scene"):
            PipelineConfig(scene={"n_boxes": 3})
        bev = BevGridConfig(z_range=[-1, 2])
        assert bev.z_range == (-1.0, 2.0) and isinstance(bev.z_range[0], float)
        assert dataclasses.replace(bev, grid_h=64).z_range == (-1.0, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(CONFIG_DICTS)
    @example({"bins": {"d_max": 1e308, "bin_size": 1e-10}})
    @example({"bins": {"d_min": 1e-320, "bin_size": 1e-320}})
    @example({"bev": {"z_range": [math.nan, 1]}, "seed": 2**70})
    @example({"seed": -(2**20000), "scene": {"image_width": 10**5000 + 1}})
    def test_config_from_dict_builds_or_names_a_key(self, data):
        try:
            cfg = config_from_dict(data)
        except ValueError as exc:
            assert any(key in str(exc) for key in _keys(data)), str(exc)
        else:
            assert isinstance(cfg, PipelineConfig)

    def test_overrides_reach_nested_sections(self):
        cfg = config_from_dict({"scene": {"n_boxes": 3}, "bev": {"grid_h": 64}, "seed": 9})
        assert cfg.scene.n_boxes == 3
        assert cfg.bev.grid_h == 64
        assert cfg.seed == 9


class TestAblationSweep:
    def test_empty_toggles_single_row(self):
        rows = ablation_sweep(small_config(), [])
        assert len(rows) == 1
        assert rows[0]["toggles"] == []

    def test_fc_toggle_recovers_boxes(self):
        base = small_config(
            scene=dataclasses.replace(
                SMALL_SCENE, dropout_fraction=1.0, stationary_fraction=1.0
            ),
            ppa_enabled=False,
        )
        off, on = ablation_sweep(base, ["fc"])
        assert off["toggles"] == [] and on["toggles"] == ["fc"]
        assert (
            on["pci_report"]["boxes_without_points_after_fc"]
            < off["pci_report"]["boxes_without_points_after_fc"]
        )

    def test_two_toggles_four_rows_ordered(self):
        rows = ablation_sweep(small_config(), ["fc", "ppa"])
        assert [r["toggles"] for r in rows] == [[], ["fc"], ["ppa"], ["fc", "ppa"]]


def dropout_sweep_base(seed=0):
    """A sweep base on a scene where fc and ppa rescue boxes; fc starts off, ppa on."""
    return config_from_dict(
        {"scene": {"dropout_fraction": 0.5, "n_frames": 4}, "fc_enabled": False, "seed": seed}
    )


def count_calls(monkeypatch, *names, module=fgbev.pipeline, calls=None):
    """Count the calls to each named function of module (into calls, when given)."""
    calls = collections.Counter() if calls is None else calls
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestSweepSharesPrepare:
    @pytest.mark.parametrize(
        "toggles",
        [[], ["fc"], ["ppa"], ["fc", "ppa"], ["ppa", "fc"]],
        ids=["none", "fc", "ppa", "fc-ppa", "ppa-fc"],
    )
    def test_rows_equal_run_pipeline(self, toggles, monkeypatch):
        calls = count_calls(
            monkeypatch, "generate_scene", "build_frustum", "frame_combination",
            "generate_hard_labels",
        )
        assigned, losses = set(), []
        for seed in range(8):
            base = dropout_sweep_base(seed)
            calls.clear()
            rows = ablation_sweep(base, toggles)
            assert calls["generate_scene"] == calls["build_frustum"] == 1
            # Rows with fc on share one combined cloud and its hard labels; fc off reuses
            # the hard labels the soft labels were built from.
            fc_rows = "fc" in toggles or base.fc_enabled
            assert calls["frame_combination"] == calls["generate_hard_labels"] == fc_rows
            assert len(rows) == 1 << len(toggles)
            losses.append(len({r["loss"] for r in rows}))
            for row in rows:
                # A toggled flag is on exactly in the rows that name it; the rest keep base's value.
                flags = {SWEEP_TOGGLES[name]: name in row["toggles"] for name in toggles}
                result = run_pipeline(dataclasses.replace(base, **flags))
                assert row["loss"] == result.loss
                assert row["included_cells"] == result.included_cells
                assert row["pci_report"] == dataclasses.asdict(result.pci_report)
                assigned.add(row["pci_report"]["boxes_assigned_pseudo"] > 0)
        # Over the seeds, some rows assign pseudo points and some assign none (ppa off, or
        # fc and ppa on at seeds 4 and 5); with no toggles every row has ppa on and fc off.
        assert assigned == ({False, True} if toggles else {True})
        # The toggles change the teacher.
        assert len(rows) == 1 or max(losses) > 1

    @pytest.mark.parametrize(
        "fc, ppa", [(False, False), (True, False), (False, True), (True, True)],
        ids=["none", "fc", "ppa", "fc-ppa"],
    )
    def test_boxes_projected_once(self, fc, ppa, monkeypatch):
        """One projection of the current boxes per run and per sweep, counted at the name
        box_corner_pixels in every fgbev module that binds it."""
        real = fgbev.geometry.box_corner_pixels
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.startswith("fgbev.") and getattr(module, "box_corner_pixels", 0) is real]
        assert {fgbev.geometry, fgbev.pipeline} <= set(modules)
        calls = collections.Counter()
        for module in modules:
            count_calls(monkeypatch, "box_corner_pixels", module=module, calls=calls)
        base = dataclasses.replace(dropout_sweep_base(), fc_enabled=fc, ppa_enabled=ppa)
        run_pipeline(base)
        assert calls == {"box_corner_pixels": 1}
        calls.clear()
        rows = ablation_sweep(base, ["fc", "ppa"])
        assert calls == {"box_corner_pixels": 1}
        assert any(row["pci_report"]["boxes_assigned_pseudo"] for row in rows)

    def test_fc_off_labels_the_cloud_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "generate_hard_labels")
        count_calls(monkeypatch, "generate_hard_labels", module=fgbev.scene, calls=calls)
        for seed in range(8):
            calls.clear()
            run_pipeline(dropout_sweep_base(seed))
            assert calls == {"generate_hard_labels": 1}

    @pytest.mark.parametrize(
        "toggles", [["seed"], ["fc", "fc"], ["msfe"]], ids=["seed", "fc-fc", "msfe"]
    )
    def test_bad_toggle_rejected_before_any_stage(self, toggles, monkeypatch):
        calls = count_calls(monkeypatch, "generate_scene")
        with pytest.raises(ValueError, match=repr(toggles[-1])):
            ablation_sweep(dropout_sweep_base(), toggles)
        assert calls["generate_scene"] == 0

    def test_stage_error_named_by_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fgbev.pipeline, "synth_feature_pyramid", failing_stage)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scene": dataclasses.asdict(SMALL_SCENE), "seed": 17}))
        assert main(["sweep", "--config", str(path), "--toggles", "fc,ppa"]) == 2
        assert "synth_features" in capsys.readouterr().err


def load_tracing():
    """perfbench/tracing.py, loaded by path as the benchmark worker imports it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_benchmark_patches_resolve():
    """Every (module, attribute) the traced benchmark wraps is a callable in fgbev."""
    tracing = load_tracing()
    unresolved = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []


@pytest.mark.parametrize("threshold_as", ["positional", "keyword"])
def test_traced_benchmark_counts_the_pool(threshold_as):
    """The traced benchmark's pooling counter reads the frustum and grid fgbev builds."""
    tracing = load_tracing()
    cfg = small_config(soft_label_noise=1.0)
    prep = fgbev.pipeline.prepare(cfg, {})
    args = (prep.ctx, prep.soft_depth, prep.soft_seg, prep.frustum, cfg.bev)
    kwargs = {"seg_threshold": cfg.seg_threshold}
    if threshold_as == "positional":
        args, kwargs = args + (cfg.seg_threshold,), {}
    counts = collections.Counter()
    tracing._count_pool(counts, args, kwargs, fgbev.pipeline.sa_bev_pool(*args, **kwargs))

    gate = prep.soft_seg.values >= cfg.seg_threshold
    keep = gate[prep.frustum.rows, prep.frustum.cols]
    brow, bcol, ok = cfg.bev.cells_for_points(prep.frustum.points[keep])
    n_bins = cfg.bins.n_bins
    assert counts["pool_entries"] == gate.size * n_bins
    assert 0 < counts["gate_passes"] == gate.sum() * n_bins < gate.size * n_bins
    assert counts["cells_touched"] == len(set(zip(brow[ok], bcol[ok]))) > 0
    channels = cfg.context_channels
    assert counts["pool_bytes_computed"] == ok.sum() * channels * 8


def test_traced_benchmark_metrics_enter_their_spans(capsys):
    """Every span a per-layer metric reads is entered by the ops the benchmark traces.

    A refactor that moves work out of a wrapped name fails here rather than
    leaving its metric to read 0 ms.
    """
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.op(0, "pipeline.run_pipeline"):
        fgbev.run_pipeline(PipelineConfig())
    with tracer.op(1, "cli.main"):
        assert main(["sweep", "--toggles", "fc,ppa"]) == 0
    rows = json.loads(capsys.readouterr().out)
    calls = tracer.calls()
    spans = {*tracing.SELF_TIME_METRICS.values(), *tracing.CALL_METRICS.values()}
    assert sorted(span for span in spans if calls[0][span] == 0) == []
    assert calls[1]["pipeline.ablation_sweep"] == 1
    assert calls[1]["distill.encode_joint"] == len(rows) == 4


# lib-large with 16 channels: 40 boxes, 1408x512 images, 9 frames, a 256^2 grid, box blur.
LIB_LARGE_16 = {
    "scene": {"n_boxes": 40, "image_width": 1408, "image_height": 512, "n_frames": 9},
    "bev": {"grid_h": 256, "grid_w": 256},
    "context_channels": 16,
    "encoder_kind": "box_blur",
}


@pytest.mark.parametrize("seed", range(1, 13))
def test_lib_large_loss_equals_full_grid_oracles(seed, monkeypatch):
    """run_pipeline's loss and included cells equal distill_loss_reference on the
    zero-padded full-grid box blur of the student and teacher it encodes."""
    from fgbev import oracles

    grids, encode = [], fgbev.pipeline.encode_joint
    monkeypatch.setattr(
        fgbev.pipeline, "encode_joint", lambda enc, s, t: grids.append((s, t)) or encode(enc, s, t)
    )
    result = run_pipeline(config_from_dict({**LIB_LARGE_16, "seed": seed}))
    ((student, teacher),) = grids
    enc_s, enc_t = oracles.box_blur_reference(np.stack([student.values, teacher.values]))
    # Outside the rows and columns where the encoded teacher is non-zero, every teacher
    # norm is 0 < eps, so the oracle loop runs on that window only.
    rows, cols = (np.flatnonzero(enc_t.any(axis=(2, a))) for a in (1, 0))
    window = np.s_[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
    loss, included = oracles.distill_loss_reference(enc_t[window], enc_s[window], 1e-6)
    assert result.included_cells == included > 0
    assert math.isclose(result.loss, loss, rel_tol=1e-12)


def _whole_map_heatmap(f4: np.ndarray) -> np.ndarray:
    """The oracle: the per-cell norm of all of f4, rescaled to [0, 1]."""
    mag = np.linalg.norm(f4, axis=2)
    lo, hi = mag.min(), mag.max()
    return np.zeros_like(mag) if hi <= lo else (mag - lo) / (hi - lo)


class TestPredictedHeatmap:
    """_predicted_heatmap norms only the box cells over the cached background magnitude,
    and holds the bits of the whole-map norm."""

    def _check(self, frame, channels, seed):
        """Both on the whole pyramid and on one storing only the rect_cells rows of f4."""
        cam = frame.cameras[0]
        w, h = cam.image_width, cam.image_height
        clipped = project_box3d_to_box2d(cam, frame.boxes)
        rects = [r for r in clipped if r is not None]
        whole = fgbev.scene.synth_feature_pyramid(cam, clipped, channels, seed)
        need = np.zeros(h // 4, dtype=bool)
        for rows, _ in fgbev.scene.rect_cells(rects, w, h, 4):
            need[rows] = True
        part = fgbev.scene.synth_feature_pyramid(
            cam, clipped, channels, seed, np.flatnonzero(need), np.arange(0)
        )
        for pyr in (whole, part):
            pred = fgbev.pipeline._predicted_heatmap(pyr, w, h, rects)
            assert pred.values.tobytes() == _whole_map_heatmap(whole.f4).tobytes()
        if need.any():
            need[np.flatnonzero(need)[-1]] = False
            short = fgbev.scene.synth_feature_pyramid(
                cam, clipped, channels, seed, np.flatnonzero(need), np.arange(0)
            )
            with pytest.raises(ValueError, match="^f4 row [0-9]+ is not stored"):
                fgbev.pipeline._predicted_heatmap(short, w, h, rects)
        return rects

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_lib_large_scenes(self, seed):
        cfg = config_from_dict({**LIB_LARGE_16, "context_channels": 32, "seed": seed})
        assert self._check(generate_scene(cfg.scene, seed).current, 32, seed + 1)

    def test_default_config(self):
        cfg = PipelineConfig()
        current = generate_scene(cfg.scene, cfg.seed).current
        assert self._check(current, cfg.context_channels, cfg.seed + 1)

    @pytest.mark.parametrize("channels", [1, 2, 3, 9, 32])
    def test_channels_and_rectangle_layouts(self, channels):
        current = generate_scene(SMALL_SCENE, 0).current
        cam = current.cameras[0]
        assert not self._check(dataclasses.replace(current, boxes=[]), channels, 0)
        # Two boxes straight ahead overlap in the image; the others cross its left and
        # right borders and its bottom edge.
        boxes = [Box3D(center=(x, y, 1.0), size=(2.0, 2.0, 2.0), yaw=0.0, visibility=4)
                 for x, y in ((12.0, 0.0), (14.0, 0.5), (6.0, 6.0), (6.0, -6.0), (3.0, 0.0))]
        rects = self._check(dataclasses.replace(current, boxes=boxes), channels, 7)
        assert min(r.x1 for r in rects) == 0.0
        assert max(r.x2 for r in rects) >= cam.image_width - 1
        assert max(r.y2 for r in rects) >= cam.image_height - 1
        a, b = rects[:2]
        assert max(a.x1, b.x1) < min(a.x2, b.x2) and max(a.y1, b.y1) < min(a.y2, b.y2)

    def test_rect_cells_hold_the_cells_whose_centers_lie_inside(self):
        rects = [None, Box2D(-30.0, -5.0, 18.0, 6.0), Box2D(10.0, 2.0, 10.0, 2.0),
                 Box2D(250.0, 100.0, 400.0, 200.0), Box2D(-9.0, -9.0, -1.0, -1.0),
                 Box2D(6.0, 2.0, 14.0, 10.0)]
        for stride in (4, 8, 16):
            cells = fgbev.scene.rect_cells(rects, 256, 128, stride)
            assert cells[0] is None
            for rect, (rows, cols) in zip(rects[1:], cells[1:]):
                mask = np.zeros((128 // stride, 256 // stride), dtype=bool)
                mask[rows, cols] = True
                v, u = (np.arange(n) * stride + stride / 2 for n in mask.shape)
                inside = ((rect.y1 <= v) & (v <= rect.y2))[:, None] & (
                    (rect.x1 <= u) & (u <= rect.x2))[None, :]
                assert np.array_equal(mask, inside)

    def test_cached_background_is_read_only(self):
        mag = fgbev.scene.background_magnitude(256, 128, 4, 3)
        assert fgbev.scene.background_magnitude(256, 128, 4, 3) is mag
        assert not mag.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mag[0, 0] = 1.0
        bg = fgbev.scene.background_feature_level(256, 128, 4, 3)
        assert mag.tobytes() == np.linalg.norm(bg, axis=2).tobytes()


def _rows_msfe_reads(target, rects, beta, width, height):
    """The oracle: f4's and f8's rows under each stride-16 row whose 4-row band of the
    thresholded target holds a non-zero cell, and f4's rows whose centers lie in a rect."""
    kept = ((target.values >= beta) & (target.values > 0)).reshape(height // 16, -1).any(axis=1)
    v = (np.arange(height // 4) + 0.5) * 4
    need4 = np.repeat(kept, 4)
    for r in rects:
        need4 |= (r.y1 <= v) & (v <= r.y2)
    return np.flatnonzero(need4), np.flatnonzero(np.repeat(kept, 2))


class TestRowSubsetPyramid:
    """prepare builds f4 and f8 only on the rows MSFE reads. Every stored row, and both
    MSFE metrics, keep the bits of the whole pyramid; f16 stays whole."""

    def _check(self, cfg, monkeypatch, boxes=None):
        synth, built = fgbev.pipeline.synth_feature_pyramid, []
        if boxes is not None:
            scene = generate_scene(cfg.scene, cfg.seed)
            frames = [*scene.frames[:-1], dataclasses.replace(scene.current, boxes=boxes)]
            scene = dataclasses.replace(scene, frames=frames)
            monkeypatch.setattr(fgbev.pipeline, "generate_scene", lambda *a: scene)
        monkeypatch.setattr(
            fgbev.pipeline, "synth_feature_pyramid",
            lambda *a: built.append((a, synth(*a))) or built[-1][1],
        )
        metrics = fgbev.pipeline.prepare(cfg, {}).msfe_metrics
        monkeypatch.setattr(fgbev.pipeline, "synth_feature_pyramid", lambda *a: synth(*a[:4]))
        whole_metrics = fgbev.pipeline.prepare(cfg, {}).msfe_metrics
        assert {k: np.float64(v).tobytes() for k, v in metrics.items()} == {
            k: np.float64(v).tobytes() for k, v in whole_metrics.items()
        }
        ((args, part),) = built
        cam, clipped = args[:2]
        whole = synth(*args[:4])
        w, h = cam.image_width, cam.image_height
        rects = [r for r in clipped if r is not None]
        target = elliptical_gaussian_heatmap(rects, h // 4, w // 4, 4)
        want4, want8 = _rows_msfe_reads(target, rects, cfg.beta, w, h)
        assert np.array_equal(part.rows4, want4) and np.array_equal(part.rows8, want8)
        assert part.f4.tobytes() == whole.f4[want4].tobytes()
        assert part.f8.tobytes() == whole.f8[want8].tobytes()
        assert part.f16.tobytes() == whole.f16.tobytes()
        return part, rects

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_lib_large_scenes(self, seed, monkeypatch):
        cfg = config_from_dict({**LIB_LARGE_16, "context_channels": 32, "seed": seed})
        part, _ = self._check(cfg, monkeypatch)
        assert 0 < len(part.rows4) < 512 // 4 and 0 < len(part.rows8) < 512 // 8

    def test_default_config(self, monkeypatch):
        part, _ = self._check(PipelineConfig(), monkeypatch)
        assert len(part.rows8) > 0

    def test_boxes_clipped_at_the_image_border(self, monkeypatch):
        # One box straight ahead; the others cross the left and right borders and the bottom.
        boxes = [Box3D(center=(x, y, 1.0), size=(2.0, 2.0, 2.0), yaw=0.0, visibility=4)
                 for x, y in ((12.0, 0.0), (6.0, 6.0), (6.0, -6.0), (3.0, 0.0))]
        part, rects = self._check(small_config(), monkeypatch, boxes)
        assert min(r.x1 for r in rects) == 0.0
        assert max(r.x2 for r in rects) >= SMALL_SCENE.image_width - 1
        assert part.rows4[-1] == SMALL_SCENE.image_height // 4 - 1

    def test_no_boxes(self, monkeypatch):
        part, rects = self._check(small_config(), monkeypatch, [])
        assert rects == []
        assert len(part.rows4) == len(part.rows8) == 0

    def test_beta_that_keeps_no_band(self, monkeypatch):
        part, _ = self._check(PipelineConfig(beta=1.0), monkeypatch)
        assert len(part.rows8) == 0 < len(part.rows4)


@pytest.mark.parametrize("scene", [SMALL_SCENE, PipelineConfig().scene,
                                   config_from_dict({"scene": {"dropout_fraction": 0.5,
                                                               "n_frames": 4}}).scene])
@pytest.mark.parametrize("seed", range(4))
def test_densified_counts_equal_whole_cloud_counts(scene, seed):
    """densify adds the carried-over points' counts to the current cloud's."""
    cfg = PipelineConfig(scene=scene, seed=seed)
    prep = fgbev.pipeline.prepare(cfg, {})
    dense = fgbev.pipeline.densify(cfg, prep, {})
    whole = box_point_counts(prep.scene.current.boxes, dense.cloud.points)
    assert np.array_equal(dense.counts, whole) and dense.counts.dtype == whole.dtype
