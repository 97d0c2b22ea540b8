"""Versioned checkpoint container.

A checkpoint is a ZIP (stored, not deflated) holding ``manifest.json`` plus
one little-endian float64 payload per tensor under ``tensors/``. Timestamps
are pinned so identical contents produce identical bytes.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

CHECKPOINT_VERSION = 1

_EPOCH = (1980, 1, 1, 0, 0, 0)  # zip format's minimum timestamp


def save_container(path, manifest: dict, arrays: dict) -> None:
    """Write manifest + named float64 arrays; overwrites ``path``."""
    path = Path(path)
    names = sorted(arrays)
    tensor_index = {}
    for i, name in enumerate(names):
        arr = np.asarray(arrays[name], dtype=np.float64)
        tensor_index[name] = {
            "shape": list(arr.shape),
            "dtype": "<f8",
            "file": f"tensors/{i:04d}.bin",
        }
    full = dict(manifest)
    full["container_version"] = CHECKPOINT_VERSION
    full["tensors"] = tensor_index
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("manifest.json", date_time=_EPOCH)
        zf.writestr(info, json.dumps(full, sort_keys=True, indent=1))
        for name in names:
            arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
            info = zipfile.ZipInfo(tensor_index[name]["file"], date_time=_EPOCH)
            zf.writestr(info, arr.astype("<f8").tobytes())


def load_container(path) -> tuple[dict, dict]:
    """Read back (manifest, arrays); raises ValueError on an unknown
    container version or a tensor holding NaN or Inf."""
    path = Path(path)
    with zipfile.ZipFile(path, "r") as zf:
        manifest = json.loads(zf.read("manifest.json"))
        version = manifest.get("container_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        arrays = {}
        for name, meta in manifest["tensors"].items():
            raw = zf.read(meta["file"])
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"tensor {name} holds NaN or Inf")
            arrays[name] = arr.reshape(meta["shape"])
    return manifest, arrays
