"""Checkpoint serialization.

A checkpoint is two files sharing a stem: `<stem>.json` holds the manifest
(tensor names, shapes, byte offsets, stage tag, config snapshot, seed,
step, blob sha256) and `<stem>.bin` holds every tensor as little-endian
float32 in manifest order.  Saving the same parameters twice produces
byte-identical files; loading restores bit-identical float32 weights.

Each file is written to a temporary name and moved into place, the blob
before the manifest, so a kill at any instant leaves every file whole.
A manifest that does not describe the blob beside it (a kill between
the two moves) fails its hash check on load instead of loading stale
weights.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig


def _stem(path) -> str:
    path = os.fspath(path)
    for suffix in (".json", ".bin"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def _write_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_checkpoint(path, params: dict, stage: str, config: TrainConfig,
                    step: int) -> tuple:
    stem = _stem(path)
    names = sorted(params)
    tensors = []
    blob = bytearray()
    for name in names:
        data = np.ascontiguousarray(params[name].data, dtype="<f4")
        raw = data.tobytes()
        tensors.append({"name": name, "shape": list(data.shape),
                        "offset": len(blob), "bytes": len(raw)})
        blob.extend(raw)
    manifest = {
        "stage": stage,
        "seed": config.seed,
        "step": int(step),
        "config": asdict(config),
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "tensors": tensors,
    }
    json_path, bin_path = stem + ".json", stem + ".bin"
    _write_atomic(bin_path, bytes(blob))
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(json_path, text.encode("utf-8"))
    return json_path, bin_path


def load_checkpoint(path) -> tuple:
    """Returns (params, manifest); weights are float32 Tensors."""
    stem = _stem(path)
    try:
        with open(stem + ".json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(stem + ".bin", "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"checkpoint incomplete at {stem!r}: {exc}") \
            from None
    if len(blob) != manifest["blob_bytes"]:
        raise ValueError(f"blob length {len(blob)} does not match manifest "
                         f"{manifest['blob_bytes']}")
    if "blob_sha256" not in manifest:
        raise ValueError(f"manifest at {stem!r} stores no blob hash; re-run "
                         "the stage that wrote it")
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise ValueError(f"blob hash does not match manifest at {stem!r}")
    params = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count,
                            offset=entry["offset"])
        params[entry["name"]] = Tensor(
            arr.reshape(shape).astype(np.float32, copy=True),
            requires_grad=True)
    return params, manifest


def checkpoint_stage(path) -> str | None:
    """Stage tag of a checkpoint, or None when it does not exist."""
    stem = _stem(path)
    if not (os.path.exists(stem + ".json") and os.path.exists(stem + ".bin")):
        return None
    with open(stem + ".json", encoding="utf-8") as fh:
        return json.load(fh)["stage"]
