"""Checkpoint round trips and byte-level stability."""

import json
import os

import numpy as np
import pytest

from heronet.autodiff import Tensor
from heronet.checkpoint import (
    checkpoint_stage,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    write_atomic,
)
from heronet.config import TrainConfig
from heronet.model import ModelConfig, init_params


def split(path):
    """(manifest, blob) of a checkpoint file: its first line, the rest."""
    head, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(head), blob


@pytest.fixture
def small_params():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=10)
    return init_params(cfg, seed=3)


VOCAB = "cd" * 32  # a vocab.json sha256, as the pipeline records it


@pytest.fixture
def pool():
    """(pool.jsonl sha256, rows, token ids): a pool section as
    pipeline.stage_rerank_train passes it, from PoolCache.stored."""
    rng = np.random.default_rng(0)
    rows = {name: rng.standard_normal((5, 8)).astype(np.float32)
            for name in ("query_emb", "resp_emb")}
    ids = {"query_ids": np.array([7, 8, 9, 10], dtype=np.int32),
           "query_lens": np.array([1, 1, 2, 0, 0], dtype=np.int32),
           "resp_ids": np.arange(3, 14, dtype=np.int32),
           "resp_lens": np.array([3, 2, 2, 2, 2], dtype=np.int32)}
    return "ab" * 32, rows, ids


class TestRoundTrip:
    def test_exact_weights(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 12, VOCAB,
                        epoch=3)
        loaded, manifest = load_checkpoint(stem)
        assert set(loaded) == set(small_params)
        for name in small_params:
            assert loaded[name].data.dtype == np.float32
            assert np.array_equal(loaded[name].data, small_params[name].data)
        assert manifest["stage"] == "warmup"
        assert manifest["step"] == 12
        assert manifest["epoch"] == 3
        assert manifest["seed"] == TrainConfig().seed
        assert manifest["config"]["m"] == 20

    def test_save_load_save_byte_identical(self, small_params, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_checkpoint(a, small_params, "warmup", TrainConfig(), 0, VOCAB)
        loaded, _ = load_checkpoint(a)
        save_checkpoint(b, loaded, "warmup", TrainConfig(), 0, VOCAB)
        assert a.read_bytes() == b.read_bytes()

    def test_float64_params_become_float32(self, tmp_path):
        params = {"w": Tensor(np.array([1.0, 2.5], dtype=np.float64))}
        stem = tmp_path / "f"
        save_checkpoint(stem, params, "warmup", TrainConfig(), 0, VOCAB)
        loaded, _ = load_checkpoint(stem)
        assert loaded["w"].data.dtype == np.float32
        assert loaded["w"].data.tolist() == [1.0, 2.5]


class TestManifest:
    def test_offsets_contiguous(self, small_params, pool, tmp_path):
        """The parameters, then any pool rows, fill the blob in order."""
        for stem, rows in ((tmp_path / "ck", None), (tmp_path / "pk", pool)):
            save_checkpoint(stem, small_params, "rerank", TrainConfig(),
                            3, VOCAB, pool=rows)
            manifest, blob = split(stem)
            entries = manifest["tensors"]
            if rows is None:
                assert "pool" not in manifest
            else:
                entries = (entries + manifest["pool"]["rows"]
                           + manifest["pool"]["ids"])
                assert [e["dtype"] for e in manifest["pool"]["ids"]] == \
                    ["<i4"] * 4
            pos = 0
            for entry in entries:
                assert entry["dtype"] in ("<f4", "<i4")
                assert entry["offset"] == pos
                want = (int(np.prod(entry["shape"])) * 4 if entry["shape"]
                        else 4)
                assert entry["bytes"] == want
                pos += entry["bytes"]
            assert pos == manifest["blob_bytes"]
            assert pos == len(blob)

    def test_one_file_compact_header(self, small_params, tmp_path):
        """One file at exactly the given path: a line of compact JSON with
        sorted keys, then the blob."""
        for name in ("ck", "ck.json", "ck.bin"):
            save_checkpoint(tmp_path / name, small_params, "warmup",
                            TrainConfig(), 0, VOCAB)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ck", "ck.bin", "ck.json"]
        manifest, blob = split(tmp_path / "ck")
        head = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        assert (tmp_path / "ck").read_bytes() == head.encode() + b"\n" + blob
        assert len(blob) == manifest["blob_bytes"]

    def test_records_the_numpy_version(self, small_params, tmp_path):
        """Only one numpy build writes a given checkpoint byte for byte,
        so the manifest names the version that wrote it; one without the
        key, as older checkpoints are, still loads."""
        path = tmp_path / "ck"
        save_checkpoint(path, small_params, "warmup", TrainConfig(), 1, VOCAB)
        manifest, blob = split(path)
        assert manifest["numpy"] == np.__version__
        del manifest["numpy"]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        loaded, _ = load_checkpoint(path)
        assert set(loaded) == set(small_params)

    def test_names_sorted(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 0, VOCAB)
        names = [t["name"] for t in split(stem)[0]["tensors"]]
        assert names == sorted(names)

    def test_stage_probe(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        assert checkpoint_stage(stem) is None
        save_checkpoint(stem, small_params, "adversarial", TrainConfig(), 0,
                        VOCAB)
        assert checkpoint_stage(stem) == "adversarial"


class TestPoolRows:
    def test_round_trip(self, small_params, pool, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "rerank", TrainConfig(), 2, VOCAB,
                        pool=pool)
        params, manifest, (digest, rows, ids) = read_checkpoint(stem)
        assert digest == manifest["pool"]["pool_sha256"] == pool[0]
        assert manifest["vocab_sha256"] == VOCAB
        for got, sent, dtype in ((rows, pool[1], np.float32),
                                 (ids, pool[2], np.int32)):
            assert sorted(got) == sorted(sent)
            for name, want in sent.items():
                assert got[name].dtype == dtype
                assert got[name].tobytes() == want.tobytes()
        loaded, _ = load_checkpoint(stem)
        assert set(loaded) == set(params) == set(small_params)

    def test_int32_entries_round_trip_bit_exactly(self, small_params,
                                                  tmp_path):
        """Integer arrays of any integer dtype are stored as int32 and read
        back bit for bit, the extremes and negative values too; one that
        int32 cannot hold is refused, not wrapped."""
        edge = np.array([[0, -1, 2**31 - 1], [-2**31, 12345, 7]])
        ids = {"a": edge.astype(np.int64), "b": np.arange(5, dtype=np.uint8),
               "c": np.zeros(0, dtype=np.int32)}
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "rerank", TrainConfig(), 0,
                        VOCAB, pool=("ab" * 32, {}, ids))
        _, manifest, (_, _, back) = read_checkpoint(stem)
        assert [e["dtype"] for e in manifest["pool"]["ids"]] == ["<i4"] * 3
        for name, want in ids.items():
            assert back[name].dtype == np.int32
            assert back[name].shape == want.shape
            assert back[name].tobytes() == want.astype("<i4").tobytes()
        assert back["a"].tolist() == edge.tolist()
        with pytest.raises(ValueError, match="int32"):
            save_checkpoint(stem, small_params, "rerank", TrainConfig(), 0,
                            VOCAB, pool=("ab" * 32, {},
                                         {"a": np.array([2**31])}))

    def test_without_rows_reads_none(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "adversarial", TrainConfig(), 0,
                        VOCAB)
        assert read_checkpoint(stem)[2] is None

    def test_parameter_section_unchanged(self, small_params, pool, tmp_path):
        save_checkpoint(tmp_path / "a", small_params, "rerank", TrainConfig(),
                        0, VOCAB, pool=pool)
        save_checkpoint(tmp_path / "b", small_params, "rerank", TrainConfig(),
                        0, VOCAB)
        a, with_rows = split(tmp_path / "a")
        b, without = split(tmp_path / "b")
        assert with_rows.startswith(without) and with_rows != without
        assert a["tensors"] == b["tensors"]

    def test_flipped_row_byte_fails_hash(self, small_params, pool, tmp_path):
        """A flipped byte among the pool rows, or among the token ids,
        fails the blob hash."""
        stem = tmp_path / "ck"
        for section in ("rows", "ids"):
            save_checkpoint(stem, small_params, "rerank", TrainConfig(), 0,
                            VOCAB, pool=pool)
            manifest, _ = split(stem)
            at = manifest["pool"][section][-1]["offset"]
            raw = bytearray(stem.read_bytes())
            raw[raw.index(b"\n") + 1 + at] ^= 0x01
            stem.write_bytes(bytes(raw))
            for read in (load_checkpoint, read_checkpoint):
                with pytest.raises(ValueError, match="hash"):
                    read(stem)


class TestErrors:
    def test_truncated_blob_rejected(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 0, VOCAB)
        stem.write_bytes(stem.read_bytes()[:-4])
        with pytest.raises(ValueError, match="blob length"):
            load_checkpoint(stem)

    def test_header_not_a_manifest_rejected(self, small_params, tmp_path):
        """A first line that is not a manifest: empty, not JSON, not an
        object, or a manifest without its blob hash or without the
        vocabulary digest, as manifests made before it was recorded."""
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 0, VOCAB)
        manifest, blob = split(stem)
        heads = [b"", b"\x00\xff not json", b"[1, 2]"]
        for key in ("blob_sha256", "vocab_sha256"):
            heads.append(json.dumps({k: v for k, v in manifest.items()
                                     if k != key}).encode())
        for head in heads:
            stem.write_bytes(head + b"\n" + blob)
            for read in (load_checkpoint, checkpoint_stage):
                with pytest.raises(ValueError, match="checkpoint manifest"):
                    read(stem)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")


class TestCrashSafety:
    """A kill at any instant of a save leaves a whole checkpoint."""

    def test_kill_before_moves_keeps_previous(self, small_params, tmp_path,
                                              monkeypatch):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 1, VOCAB)
        newer = {n: Tensor(t.data + 1.0) for n, t in small_params.items()}
        moves = []

        def replace(src, dst):
            moves.append(dst)
            raise KeyboardInterrupt  # the process dies here

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(stem, newer, "warmup", TrainConfig(), 2, VOCAB)
        monkeypatch.undo()
        assert moves == [stem]
        loaded, manifest = load_checkpoint(stem)
        assert manifest["step"] == 1
        assert np.array_equal(loaded["out.w"].data,
                              small_params["out.w"].data)

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_interrupted_write_removes_its_temp(self, tmp_path, monkeypatch,
                                                step):
        path = tmp_path / "log.csv"
        write_atomic(path, b"old\n")

        def die(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, step, die)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, b"new\n")
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]
        assert path.read_bytes() == b"old\n"

    def test_resave_byte_identical_and_leaves_no_temp(self, small_params,
                                                      tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 4, VOCAB)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), 4, VOCAB)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(first) == ["ck"]
        assert first == second
