"""Checkpoint serialization.

A checkpoint is one file, at exactly the path its caller names.  Its
first line is the manifest, compact JSON with sorted keys: stage tag,
config snapshot, seed, step, epoch, `vocab_sha256` (the sha256 of the
vocab.json bytes the stage trained under), `numpy` (the version of the
numpy that wrote it), the tensor entries, and the blob's length and
sha256.  The blob follows the newline.  Each entry gives an array's
name, dtype, shape and byte offset, counted from the blob's first byte;
the arrays follow one another in manifest order, float arrays as
little-endian float32 (`<f4`), integer arrays as little-endian int32
(`<i4`).  Saving the same parameters twice produces byte-identical
files; loading restores bit-identical arrays.  A stage run again with
the same seed writes a byte-identical checkpoint only under one numpy
build and one BLAS thread count, since both decide the order of the
float sums in a matrix product: heronet.cli pins BLAS to one thread,
and the manifest records the numpy version.

A rerank checkpoint is what chat and evaluate serve from.  Its blob
holds the parameters, then the pool rows, then the pool's token ids.
The rows are the pooled encoder rows of every candidate-pool query and
response, which rerank-train built from its frozen encoder
(retrieval.PoolCache).  The ids are the token id lists those rows were
encoded from: per side, queries and responses, the lists concatenated
into one int32 array (`query_ids`, `resp_ids`) beside their int32
lengths (`query_lens`, `resp_lens`).  The manifest lists them under
`pool`, apart from `tensors`: `rows`, `ids`, and `pool_sha256`, the
sha256 of the pool.jsonl bytes rerank-train loaded, so that a reader
can tell whether they belong to its pool without reading it.
Only rerank-train writes a pool section.  `blob_sha256` covers the
rows and ids too.  The parameter section is laid out as in a checkpoint
without them.  A first line without `stage`, `tensors`, `blob_bytes`,
`blob_sha256` or `vocab_sha256` is not a manifest this module reads;
checkpoints made before manifests recorded the vocabulary are refused,
not read another way.  `numpy` is not required: checkpoints made before
manifests recorded it still load.

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


_DTYPES = {"<f4": np.float32, "<i4": np.int32}


def _pack(arrays: dict, blob: bytearray) -> list:
    """Append each array to blob in name order, integer arrays as
    little-endian int32 and the rest as little-endian float32; returns
    their manifest entries."""
    entries = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        dtype = "<i4" if arr.dtype.kind in "iu" else "<f4"
        data = np.ascontiguousarray(arr, dtype=dtype)
        if dtype == "<i4" and not np.array_equal(data, arr):
            raise ValueError(f"{name} holds values outside int32")
        raw = data.tobytes()
        entries.append({"name": name, "dtype": dtype,
                        "shape": list(data.shape), "offset": len(blob),
                        "bytes": len(raw)})
        blob.extend(raw)
    return entries


def _unpack(blob, entries: list) -> dict:
    """The arrays that manifest entries describe, by name, each a native
    float32 or int32 copy."""
    out = {}
    for entry in entries:
        dtype = entry["dtype"]
        if dtype not in _DTYPES:
            raise ValueError(f"{entry['name']}: unknown dtype {dtype!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(blob, dtype=dtype, count=count,
                            offset=entry["offset"])
        out[entry["name"]] = arr.reshape(shape).astype(_DTYPES[dtype],
                                                       copy=True)
    return out


def save_checkpoint(path, params: dict, stage: str, config: TrainConfig,
                    step: int, vocab_sha256: str, pool: tuple | None = None,
                    epoch: int = 0) -> None:
    """Write params, after `epoch` completed epochs, trained under the
    vocab.json whose sha256 is vocab_sha256; and pool when given:
    (pool.jsonl sha256, rows by name, token ids by name), stored after
    the parameters, rows first."""
    blob = bytearray()
    manifest = {
        "stage": stage,
        "seed": config.seed,
        "step": int(step),
        "epoch": int(epoch),
        "config": asdict(config),
        "vocab_sha256": vocab_sha256,
        "numpy": np.__version__,
        "tensors": _pack({n: t.data for n, t in params.items()}, blob),
    }
    if pool is not None:
        pool_sha256, rows, ids = pool
        manifest["pool"] = {"pool_sha256": pool_sha256,
                            "rows": _pack(rows, blob),
                            "ids": _pack(ids, blob)}
    manifest["blob_bytes"] = len(blob)
    manifest["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    head = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    write_atomic(path, head.encode("utf-8") + b"\n" + blob)


# every manifest key a reader indexes
_REQUIRED = ("stage", "tensors", "blob_bytes", "blob_sha256", "vocab_sha256")


def _manifest(line: bytes, path) -> dict:
    """The manifest on a checkpoint's first line; ValueError when the line
    is not one, or lacks a key its readers index (_REQUIRED)."""
    try:
        manifest = json.loads(line)
    except ValueError:
        manifest = None
    if not isinstance(manifest, dict) or not all(k in manifest
                                                 for k in _REQUIRED):
        raise ValueError(f"{path} does not start with a checkpoint manifest")
    return manifest


def read_checkpoint(path) -> tuple:
    """Returns (params, manifest, pool); weights are float32 Tensors.

    pool is what save_checkpoint was given, (pool.jsonl sha256, rows by
    name, token ids by name) with float32 rows and int32 ids, or None
    when the checkpoint carries no pool section.  The file is read once,
    and the blob hashed and unpacked in place.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n") + 1
    manifest = _manifest(raw[:end], path)
    blob = memoryview(raw)[end:]
    if len(blob) != manifest["blob_bytes"]:
        raise ValueError(f"blob length {len(blob)} does not match manifest "
                         f"{manifest['blob_bytes']} at {path}")
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise ValueError(f"blob hash does not match manifest at {path}")
    params = {name: Tensor(arr, requires_grad=True) for name, arr
              in _unpack(blob, manifest["tensors"]).items()}
    pool = manifest.get("pool")
    if pool is not None:
        pool = (pool["pool_sha256"], _unpack(blob, pool["rows"]),
                _unpack(blob, pool["ids"]))
    return params, manifest, pool


def load_checkpoint(path) -> tuple:
    """Returns (params, manifest): read_checkpoint without the pool."""
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
