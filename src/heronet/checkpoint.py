"""Checkpoint serialization.

A checkpoint is one file, at exactly the path its caller names.  Its
first line is the manifest, compact JSON with sorted keys: tensor names,
shapes and byte offsets, stage tag, config snapshot, seed, step, epoch,
and the blob's length and sha256.  The blob follows the newline: every
tensor as little-endian float32 in manifest order, offsets counted from
the blob's first byte.  Saving the same parameters twice produces
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

The file is written to a temporary name and moved into place with one
os.replace, so a kill at any instant leaves the previous checkpoint or
the new one, whole.  The blob's length and hash stay in the manifest for
what a move cannot rule out: a file cut short or altered after it was
written fails them on load instead of loading wrong weights.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig


def write_atomic(path, data: bytes) -> None:
    """Write data to a temporary name beside path, then move it there; an
    interruption, KeyboardInterrupt too, removes the temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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


def _unpack(blob, entries: list) -> dict:
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
                    step: int, pool: tuple | None = None,
                    epoch: int = 0) -> None:
    """Write params, after `epoch` completed epochs, and pool when given:
    (token digest, rows by name), the rows stored after the parameters."""
    blob = bytearray()
    manifest = {
        "stage": stage,
        "seed": config.seed,
        "step": int(step),
        "epoch": int(epoch),
        "config": asdict(config),
        "tensors": _pack({n: t.data for n, t in params.items()}, blob),
    }
    if pool is not None:
        token_sha256, rows = pool
        manifest["pool"] = {"token_sha256": token_sha256,
                            "rows": _pack(rows, blob)}
    manifest["blob_bytes"] = len(blob)
    manifest["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    head = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    write_atomic(path, head.encode("utf-8") + b"\n" + blob)


def _manifest(line: bytes, path) -> dict:
    """The manifest on a checkpoint's first line."""
    try:
        manifest = json.loads(line)
    except ValueError:
        manifest = None
    if not isinstance(manifest, dict) or "blob_sha256" not in manifest:
        raise ValueError(f"{path} does not start with a checkpoint manifest")
    return manifest


def read_checkpoint(path) -> tuple:
    """Returns (params, manifest, pool); weights are float32 Tensors.

    pool is what save_checkpoint was given, (token digest, rows by name)
    with float32 rows, or None when the checkpoint carries no pool rows.
    The file is read once, and the blob hashed and unpacked in place.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n") + 1
    manifest = _manifest(raw[:end], path)
    blob = memoryview(raw)[end:]
    if len(blob) != manifest["blob_bytes"]:
        raise ValueError(f"blob length {len(blob)} does not match manifest "
                         f"{manifest['blob_bytes']}")
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise ValueError(f"blob hash does not match manifest at {path}")
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
    """Stage tag on a checkpoint's first line, or None with no file."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
    except FileNotFoundError:
        return None
    return _manifest(line, path)["stage"]
