"""Checkpoint serialization.

A checkpoint is two files sharing a stem: `<stem>.json` holds the manifest
(tensor names, shapes, byte offsets, stage tag, config snapshot, seed,
step, blob sha256) and `<stem>.bin` holds every tensor as little-endian
float32 in manifest order.  Saving the same parameters twice produces
byte-identical files; loading restores bit-identical float32 weights.

A rerank checkpoint's blob holds the parameters, then the pool rows: the
pooled encoder rows of every candidate-pool query and response, which
rerank-train built from its frozen encoder (retrieval.PoolCache), stored
so that chat and evaluate read them instead of encoding the pool again.
Only rerank-train writes rows.  The manifest lists them under `pool`,
apart from `tensors`, with `token_sha256`: the sha256 of the token id
lists they were encoded from, every pool query and then every response
in entry order (PoolCache.token_digest), so a reader can tell whether
they belong to its pool.  `blob_sha256` covers the rows too.  The
parameter section is laid out as in a checkpoint without rows.

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


def write_atomic(path, data: bytes) -> None:
    """Write data to a temporary name beside path, then move it there."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _pack(arrays: dict, blob: bytearray) -> list:
    """Append each array to blob as little-endian float32, in name order;
    returns their manifest entries."""
    entries = []
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name], dtype="<f4")
        raw = data.tobytes()
        entries.append({"name": name, "shape": list(data.shape),
                        "offset": len(blob), "bytes": len(raw)})
        blob.extend(raw)
    return entries


def _unpack(blob: bytes, entries: list) -> dict:
    """The float32 arrays that manifest entries describe, by name."""
    out = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count,
                            offset=entry["offset"])
        out[entry["name"]] = arr.reshape(shape).astype(np.float32, copy=True)
    return out


def save_checkpoint(path, params: dict, stage: str, config: TrainConfig,
                    step: int, pool: tuple | None = None) -> tuple:
    """Write params, and pool when given: (token digest, rows by name),
    the rows stored after the parameters."""
    stem = _stem(path)
    blob = bytearray()
    manifest = {
        "stage": stage,
        "seed": config.seed,
        "step": int(step),
        "config": asdict(config),
        "tensors": _pack({n: t.data for n, t in params.items()}, blob),
    }
    if pool is not None:
        token_sha256, rows = pool
        manifest["pool"] = {"token_sha256": token_sha256,
                            "rows": _pack(rows, blob)}
    manifest["blob_bytes"] = len(blob)
    manifest["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    json_path, bin_path = stem + ".json", stem + ".bin"
    write_atomic(bin_path, bytes(blob))
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic(json_path, text.encode("utf-8"))
    return json_path, bin_path


def read_checkpoint(path) -> tuple:
    """Returns (params, manifest, pool); weights are float32 Tensors.

    pool is what save_checkpoint was given, (token digest, rows by name)
    with float32 rows, or None when the checkpoint carries no pool rows.
    The blob is read and hashed once for both.
    """
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
    params = {name: Tensor(arr, requires_grad=True) for name, arr
              in _unpack(blob, manifest["tensors"]).items()}
    pool = manifest.get("pool")
    if pool is not None:
        pool = (pool["token_sha256"], _unpack(blob, pool["rows"]))
    return params, manifest, pool


def load_checkpoint(path) -> tuple:
    """Returns (params, manifest): read_checkpoint without the pool rows."""
    params, manifest, _ = read_checkpoint(path)
    return params, manifest


def checkpoint_stage(path) -> str | None:
    """Stage tag of a checkpoint, or None when it does not exist."""
    stem = _stem(path)
    if not (os.path.exists(stem + ".json") and os.path.exists(stem + ".bin")):
        return None
    with open(stem + ".json", encoding="utf-8") as fh:
        return json.load(fh)["stage"]
