"""Portable graymap, flat-binary and CSV export.

Conventions (also documented in the README):

* Graymaps are binary 16-bit PGM (P5, maxval 65535, big-endian samples).
* Depth rasters store meters * 1000, clamped to the 16-bit range.
* Probability rasters store value * 65535.
* Flat binaries are little-endian float64 in C order, with a JSON sidecar
  recording shape/dtype/order.
* CSV text is a header line of column names, then one line per record with
  each cell written as str() of the record's value.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .pci import PciReport

PCI_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(PciReport))
RESULT_CSV_COLUMNS = (
    "loss",
    "included_cells",
    *PCI_CSV_COLUMNS,
    "msfe_fused_l2",
    "msfe_heatmap_focal_loss",
)
SWEEP_CSV_COLUMNS = ("toggles", "loss", "included_cells", *PCI_CSV_COLUMNS)


def depth_to_u16(depth_m: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(depth_m) * 1000.0), 0, 65535).astype(np.uint16)


def prob_to_u16(prob: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(prob) * 65535.0), 0, 65535).astype(np.uint16)


def occupancy_to_u16(occupancy: np.ndarray) -> np.ndarray:
    """Rescale a nonnegative occupancy grid so its maximum maps to 65535."""
    occ = np.asarray(occupancy, dtype=np.float64)
    peak = occ.max() if occ.size else 0.0
    if peak <= 0.0:
        return np.zeros(occ.shape, dtype=np.uint16)
    return np.clip(np.rint(occ / peak * 65535.0), 0, 65535).astype(np.uint16)


def write_pgm16(path, values: np.ndarray) -> None:
    """Write a 2-D uint16 array as a binary PGM."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"PGM export needs a 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint16:
        raise ValueError(f"PGM export needs uint16 data, got {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(arr.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    """Read back a binary 16-bit PGM written by write_pgm16."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"65535":
        raise ValueError(f"{path} is not a 16-bit binary PGM")
    w, h = (int(x) for x in parts[1].split())
    return np.frombuffer(parts[3], dtype=">u2", count=h * w).reshape(h, w).astype(np.uint16)


def save_array(path_base, values: np.ndarray) -> None:
    """Write values as {base}.bin (float64, little-endian, C order) + {base}.json."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    base = Path(path_base)
    arr.astype("<f8").tofile(base.with_suffix(".bin"))
    header = {"shape": list(arr.shape), "dtype": "<f8", "order": "C"}
    base.with_suffix(".json").write_text(json.dumps(header, sort_keys=True) + "\n")


def load_array(path_base) -> np.ndarray:
    base = Path(path_base)
    header = json.loads(base.with_suffix(".json").read_text())
    flat = np.fromfile(base.with_suffix(".bin"), dtype=header["dtype"])
    return flat.reshape(header["shape"])


def csv_text(columns: tuple[str, ...], records: list[dict]) -> str:
    """Render records (mappings holding every column) as CSV text in column order."""
    lines = [",".join(columns)]
    lines += [",".join(str(rec[col]) for col in columns) for rec in records]
    return "\n".join(lines) + "\n"
