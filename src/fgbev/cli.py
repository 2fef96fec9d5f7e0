"""Command-line front end.

Commands: gen-scene, labels, pci-stats, heatmap, pipeline, sweep, selfcheck.
Exit codes: 0 success, 1 validation error (bad flags, malformed config,
missing or unreadable input path, unwritable --out), 2 internal failure
(including failed selfcheck suites).

Config precedence everywhere: command-line flag > config-file value >
built-in default. Relative --config/--scene paths are also looked up under
$FGBEV_CONFIG_DIR when they do not resolve from the working directory.

JSON output is json.dumps(obj, sort_keys=True, indent=2) plus a newline for
every command. The pipeline's occupancy grids get those bytes from their
arrays: 0.0 for a +0.0 cell, float.__repr__ for any other (-0.0 too); a grid
holding NaN or an infinity goes through json.dumps.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .arrayio import (
    PCI_CSV_COLUMNS,
    RESULT_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    csv_text,
    depth_to_u16,
    occupancy_to_u16,
    prob_to_u16,
    save_array,
    write_pgm16,
)
from .config import check_budget, from_dict
from .distill import ENCODERS
from .geometry import CameraModel, box_point_counts, project_box3d_to_box2d
from .labels import DepthBinConfig, generate_hard_labels
from .msfe import elliptical_gaussian_heatmap, threshold_filter
from .pci import frame_combination, pci_statistics, pseudo_point_assignment
from .pipeline import (
    FEATURE_STRIDE,
    HEATMAP_STRIDE,
    OCCUPANCY_FIELDS,
    SWEEP_TOGGLES,
    PipelineConfig,
    PipelineResult,
    PipelineStageError,
    ablation_sweep,
    config_from_dict,
    run_pipeline,
)
from .scene import Scene, SceneConfig, generate_scene, load_scene, save_scene

CONFIG_DIR_ENV = "FGBEV_CONFIG_DIR"

# PipelineConfig fields that `pipeline` and `sweep` also take as flags, e.g. --encoder-kind.
CONFIG_FLAGS = {
    "seed": dict(type=int, help="override the pipeline seed"),
    "encoder_kind": dict(choices=tuple(ENCODERS)),
    "seg_threshold": dict(type=float, help="override the pooling gate"),
    "beta": dict(type=float, help="override the heatmap threshold"),
}

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dump(obj) -> str:
    """The JSON every command prints: keys sorted, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2)


def _dump_result(result: PipelineResult, include_timing: bool = False) -> str:
    """_dump(result.to_dict(include_timing)), with each occupancy grid written from its array.

    json's indenting encoder is pure Python, and the two grids hold 2 x 128 x
    128 floats by default, nearly all +0.0. Each grid goes through _dump as a
    placeholder; the grids' keys sort first, so the first two placeholders in
    the text are theirs. An all-zero row is one shared string.
    """
    fields = result.fields(include_timing)
    text = _dump({**fields, **dict.fromkeys(OCCUPANCY_FIELDS, "@grid")})
    for key in OCCUPANCY_FIELDS:
        text = text.replace('"@grid"', _grid_text(fields[key]), 1)
    return text


def _grid_text(grid: np.ndarray) -> str:
    """The text of one (H, W) float64 grid in _dump_result."""
    if not np.isfinite(grid).all():
        return _dump(grid.tolist()).replace("\n", "\n  ")
    h, w = grid.shape
    written = (grid != 0) | np.signbit(grid)
    rows = [",\n      ".join(["0.0"] * w)] * h
    for i in np.flatnonzero(written.any(axis=1)).tolist():
        cells = ["0.0"] * w
        for j, value in zip(np.flatnonzero(written[i]).tolist(), grid[i, written[i]].tolist()):
            cells[j] = float.__repr__(value)
        rows[i] = ",\n      ".join(cells)
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"


def _resolve_input(path_str: str, flag: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if not path.is_absolute() and env_dir:
        candidate = Path(env_dir) / path
        if candidate.exists():
            return candidate
    raise ValueError(f"{flag} file not found: {path_str}")


def _load_json(path_str: str) -> dict:
    path = _resolve_input(path_str, "--config")
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return data


def _scene_and_camera(args) -> tuple[Scene, CameraModel]:
    """The --scene file and its current frame's camera number --cam."""
    scene = load_scene(_resolve_input(args.scene, "--scene"))
    cameras = scene.current.cameras
    if not 0 <= args.cam < len(cameras):
        raise ValueError(f"camera index --cam {args.cam} out of range (scene has {len(cameras)})")
    return scene, cameras[args.cam]


def _out_dir(out: str) -> Path:
    """Create the --out directory before any work, so a bad path fails at once."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gen_scene(args) -> int:
    data = _load_json(args.config) if args.config else {}
    file_seed = data.pop("seed", None)
    if file_seed is not None and (isinstance(file_seed, bool) or not isinstance(file_seed, int)):
        raise ValueError(f"scene config seed must be an integer, got {type(file_seed).__name__}")
    cfg = from_dict(SceneConfig, data, "scene config")
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    path = _out_dir(args.out) / "scene.json"
    scene = generate_scene(cfg, seed)
    save_scene(scene, path)
    n_pts = sum(len(f.lidar) for f in scene.frames)
    print(
        _dump(
            {
                "scene": str(path),
                "frames": len(scene.frames),
                "boxes": len(scene.current.boxes),
                "lidar_points": n_pts,
                "seed": seed,
            }
        )
    )
    return 0


def _cmd_labels(args) -> int:
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {args.stride}")
    scene, cam = _scene_and_camera(args)
    frame = scene.current
    try:
        bin_cfg = DepthBinConfig(d_min=args.d_min, d_max=args.d_max, bin_size=args.bin_size)
    except ValueError as exc:
        raise ValueError(f"--d-min/--d-max/--bin-size: {exc}") from None
    try:
        h_f, w_f = cam.feature_grid_shape(args.stride)
    except ValueError as exc:
        raise ValueError(f"--stride: {exc}") from None
    # Only --bin builds the dense one-hot depth; every other map is (H_f, W_f).
    cells, what = h_f * w_f, "feature cells of the camera's image_width x image_height at --stride"
    if args.bin:
        cells, what = cells * bin_cfg.n_bins, f"{what} times --d-min/--d-max/--bin-size bins for --bin"
    check_budget(cells, what)
    out_dir = _out_dir(args.out)
    hard = generate_hard_labels(frame.lidar, frame.boxes, cam, bin_cfg, args.stride)
    write_pgm16(out_dir / "depth.pgm", depth_to_u16(hard.depth_meters()))
    write_pgm16(out_dir / "seg.pgm", prob_to_u16(hard.foreground))
    write_pgm16(out_dir / "valid.pgm", prob_to_u16(hard.valid_mask))
    if args.bin:
        save_array(out_dir / "depth", hard.one_hot())
        save_array(out_dir / "seg", hard.foreground)
    print(
        _dump(
            {
                "out": str(out_dir),
                "grid": list(hard.shape),
                "valid_cells": int(hard.valid_mask.sum()),
                "foreground_cells": int(hard.foreground.sum()),
            }
        )
    )
    return 0


def _cmd_pci_stats(args) -> int:
    scene, cam = _scene_and_camera(args)
    frame = scene.current
    for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")
    if args.d_max <= args.d_min:
        raise ValueError(f"--d-max ({args.d_max}) must exceed --d-min ({args.d_min})")
    combined = frame_combination(frame, scene.past)
    before = box_point_counts(frame.boxes, frame.lidar.points)
    after = box_point_counts(frame.boxes, combined.points)
    pseudo = pseudo_point_assignment(after, frame.boxes, cam, (args.d_min, args.d_max))
    report = dataclasses.asdict(pci_statistics(before, after, pseudo))
    if args.format == "csv":
        print(csv_text(PCI_CSV_COLUMNS, [report]), end="")
    else:
        print(_dump(report))
    return 0


def _cmd_heatmap(args) -> int:
    scene, cam = _scene_and_camera(args)
    frame = scene.current
    if not 0.0 <= args.beta <= 1.0:
        raise ValueError(f"--beta must be in [0, 1], got {args.beta}")
    h, w = cam.image_height // HEATMAP_STRIDE, cam.image_width // HEATMAP_STRIDE
    check_budget(h * w, "stride-4 cells of the camera's image_width x image_height")
    out_dir = _out_dir(args.out)
    rects = [r for r in project_box3d_to_box2d(cam, frame.boxes) if r is not None]
    hm = elliptical_gaussian_heatmap(rects, h, w, HEATMAP_STRIDE)
    filtered = threshold_filter(hm, args.beta)
    write_pgm16(out_dir / "s4.pgm", prob_to_u16(hm.values))
    write_pgm16(out_dir / "s4_filtered.pgm", prob_to_u16(filtered.values))
    print(
        _dump(
            {
                "out": str(out_dir),
                "boxes_drawn": len(rects),
                "beta": args.beta,
                "cells_kept": int((filtered.values > 0).sum()),
            }
        )
    )
    return 0


def _pipeline_config(args) -> PipelineConfig:
    """The config file's values with the given flags put over them, built in one call."""
    data = _load_json(args.config) if args.config else {}
    for key in CONFIG_FLAGS:
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    return config_from_dict(data)


def _cmd_pipeline(args) -> int:
    if args.timing and args.format == "csv":
        raise ValueError("--timing adds stage timings to JSON output; --format csv has none")
    cfg = _pipeline_config(args)
    out_dir = _out_dir(args.out) if args.out else None
    result = run_pipeline(cfg)
    # Timings go to stderr so stdout stays byte-identical across runs.
    for name, seconds in result.timing.items():
        print(f"[timing] {name}: {seconds * 1000:.2f} ms", file=sys.stderr)
    if out_dir:
        for name, occ in (
            ("occupancy_student", result.bev_occupancy_student),
            ("occupancy_teacher", result.bev_occupancy_teacher),
        ):
            write_pgm16(out_dir / f"{name}.pgm", occupancy_to_u16(occ))
            save_array(out_dir / name, occ)
    if args.format == "csv":
        record = {
            "loss": result.loss,
            "included_cells": result.included_cells,
            **dataclasses.asdict(result.pci_report),
            "msfe_fused_l2": result.msfe_metrics["fused_l2"],
            "msfe_heatmap_focal_loss": result.msfe_metrics["heatmap_focal_loss"],
        }
        print(csv_text(RESULT_CSV_COLUMNS, [record]), end="")
    else:
        print(_dump_result(result, include_timing=args.timing))
    return 0


def _cmd_sweep(args) -> int:
    names = [t.strip() for t in args.toggles.split(",") if t.strip()]
    rows = ablation_sweep(_pipeline_config(args), names)
    if args.format == "csv":
        records = [
            {**row, **row["pci_report"], "toggles": "+".join(row["toggles"]) or "(base)"}
            for row in rows
        ]
        print(csv_text(SWEEP_CSV_COLUMNS, records), end="")
    else:
        print(_dump(rows))
    return 0


def _cmd_selfcheck(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    from .selfcheck import run_selfcheck  # loads the oracles, which no other command needs
    results = run_selfcheck(seed=args.seed, quick=args.quick)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        all_ok &= r.passed
    print(f"{'all' if all_ok else 'NOT all'} {len(results)} oracle suites passed")
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fgbev", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen-scene", help="generate a synthetic scene and write it as JSON"
    )
    p.add_argument("--config", help="scene config JSON (SceneConfig fields plus optional seed)")
    p.add_argument("--out", required=True, help="output directory for scene.json")
    p.add_argument("--seed", type=int, help="override the scene seed")
    p.set_defaults(func=_cmd_gen_scene)

    bins = DepthBinConfig()
    p = sub.add_parser("labels", help="rasterize hard labels from a scene's current frame")
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--cam", type=int, default=0, help="camera index (default 0)")
    p.add_argument("--out", required=True, help="output directory for PGM rasters")
    p.add_argument(
        "--stride", type=int, default=FEATURE_STRIDE, help="feature stride (default %(default)s)"
    )
    p.add_argument("--d-min", type=float, default=bins.d_min, help="minimum binned depth")
    p.add_argument("--d-max", type=float, default=bins.d_max, help="maximum binned depth")
    p.add_argument("--bin-size", type=float, default=bins.bin_size, help="depth bin width")
    p.add_argument(
        "--bin", action="store_true", help="also write depth/seg as flat binary + JSON header"
    )
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("pci-stats", help="report densification coverage statistics")
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--cam", type=int, default=0, help="camera index (default 0)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--d-min", type=float, default=bins.d_min, help="perception range near limit")
    p.add_argument("--d-max", type=float, default=bins.d_max, help="perception range far limit")
    p.set_defaults(func=_cmd_pci_stats)

    p = sub.add_parser("heatmap", help="render stride-4 foreground heatmaps for a scene")
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--cam", type=int, default=0, help="camera index (default 0)")
    p.add_argument(
        "--beta",
        type=float,
        default=PipelineConfig().beta,
        help="foreground threshold (default %(default)s)",
    )
    p.add_argument("--out", required=True, help="output directory for PGM rasters")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("pipeline", help="run one frame end to end and print the result")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument(
        "--timing", action="store_true", help="include stage timings in the JSON output"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--out", help="directory for BEV occupancy rasters (PGM + flat binary)"
    )
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("sweep", help="run every on/off combination of the named toggles")
    p.add_argument("--config", help="pipeline config JSON for the base row")
    p.add_argument(
        "--toggles",
        required=True,
        help=f"comma-separated toggle names from {sorted(SWEEP_TOGGLES)}",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_sweep)
    for p in (sub.choices["pipeline"], sub.choices["sweep"]):
        for key, kwargs in CONFIG_FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), **kwargs)

    p = sub.add_parser("selfcheck", help="run the oracle comparison suites")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--quick", action="store_true", help="smaller case counts")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_allocator() -> None:
    """Serve arrays of up to 32 MiB from the heap and keep up to 64 MiB of it.

    Otherwise glibc maps each block above its mmap threshold afresh and raises
    the threshold to the largest mapped block freed so far. A BEV grid stores
    its occupied cells, whose number varies with the seed, so the page faults
    each stage paid depended on the seeds the process had run. C libraries
    without mallopt are left as they are.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    _pin_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"fgbev: error: {exc}", file=sys.stderr)
        return 1
    except PipelineStageError as exc:
        print(f"fgbev: pipeline failure: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
