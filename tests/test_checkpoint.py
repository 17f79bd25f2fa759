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
)
from heronet.config import TrainConfig
from heronet.model import ModelConfig, init_params


@pytest.fixture
def small_params():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=10)
    return init_params(cfg, seed=3)


@pytest.fixture
def pool():
    """(token digest, rows) as PoolCache.stored gives them."""
    rng = np.random.default_rng(0)
    return "ab" * 32, {
        name: rng.standard_normal((5, 8)).astype(np.float32)
        for name in ("query_emb", "resp_emb")}


class TestRoundTrip:
    def test_exact_weights(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), step=12)
        loaded, manifest = load_checkpoint(stem)
        assert set(loaded) == set(small_params)
        for name in small_params:
            assert loaded[name].data.dtype == np.float32
            assert np.array_equal(loaded[name].data, small_params[name].data)
        assert manifest["stage"] == "warmup"
        assert manifest["step"] == 12
        assert manifest["seed"] == TrainConfig().seed
        assert manifest["config"]["m"] == 20

    def test_save_load_save_byte_identical(self, small_params, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_checkpoint(a, small_params, "warmup", TrainConfig(), step=0)
        loaded, _ = load_checkpoint(a)
        save_checkpoint(b, loaded, "warmup", TrainConfig(), step=0)
        assert (tmp_path / "a.bin").read_bytes() == \
               (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
               (tmp_path / "b.json").read_bytes()

    def test_float64_params_become_float32(self, tmp_path):
        params = {"w": Tensor(np.array([1.0, 2.5], dtype=np.float64))}
        stem = tmp_path / "f"
        save_checkpoint(stem, params, "warmup", TrainConfig(), step=0)
        loaded, _ = load_checkpoint(stem)
        assert loaded["w"].data.dtype == np.float32
        assert loaded["w"].data.tolist() == [1.0, 2.5]


class TestManifest:
    def test_offsets_contiguous(self, small_params, pool, tmp_path):
        """The parameters, then any pool rows, fill the blob in order."""
        for stem, rows in ((tmp_path / "ck", None), (tmp_path / "pk", pool)):
            jp, bp = save_checkpoint(stem, small_params, "rerank",
                                     TrainConfig(), step=3, pool=rows)
            manifest = json.loads(open(jp).read())
            entries = manifest["tensors"]
            if rows is None:
                assert "pool" not in manifest
            else:
                entries = entries + manifest["pool"]["rows"]
            pos = 0
            for entry in entries:
                assert entry["offset"] == pos
                want = (int(np.prod(entry["shape"])) * 4 if entry["shape"]
                        else 4)
                assert entry["bytes"] == want
                pos += entry["bytes"]
            assert pos == manifest["blob_bytes"]
            assert pos == len(open(bp, "rb").read())

    def test_names_sorted(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        jp, _ = save_checkpoint(stem, small_params, "warmup", TrainConfig(), 0)
        names = [t["name"] for t in json.loads(open(jp).read())["tensors"]]
        assert names == sorted(names)

    def test_stage_probe(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        assert checkpoint_stage(stem) is None
        save_checkpoint(stem, small_params, "adversarial", TrainConfig(), 0)
        assert checkpoint_stage(stem) == "adversarial"


class TestPoolRows:
    def test_round_trip(self, small_params, pool, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "rerank", TrainConfig(), step=2,
                        pool=pool)
        params, manifest, (digest, rows) = read_checkpoint(stem)
        assert digest == pool[0]
        assert manifest["pool"]["token_sha256"] == pool[0]
        assert sorted(rows) == sorted(pool[1])
        for name, want in pool[1].items():
            assert rows[name].dtype == np.float32
            assert rows[name].tobytes() == want.tobytes()
        loaded, _ = load_checkpoint(stem)
        assert set(loaded) == set(params) == set(small_params)

    def test_without_rows_reads_none(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "adversarial", TrainConfig(), 0)
        assert read_checkpoint(stem)[2] is None

    def test_parameter_section_unchanged(self, small_params, pool, tmp_path):
        save_checkpoint(tmp_path / "a", small_params, "rerank", TrainConfig(),
                        0, pool=pool)
        save_checkpoint(tmp_path / "b", small_params, "rerank", TrainConfig(),
                        0)
        with_rows = (tmp_path / "a.bin").read_bytes()
        without = (tmp_path / "b.bin").read_bytes()
        assert with_rows.startswith(without) and with_rows != without
        assert json.loads((tmp_path / "a.json").read_text())["tensors"] == \
            json.loads((tmp_path / "b.json").read_text())["tensors"]

    def test_flipped_row_byte_fails_hash(self, small_params, pool, tmp_path):
        stem = tmp_path / "ck"
        jp, bp = save_checkpoint(stem, small_params, "rerank", TrainConfig(),
                                 0, pool=pool)
        at = json.loads(open(jp).read())["pool"]["rows"][-1]["offset"]
        raw = bytearray(open(bp, "rb").read())
        raw[at] ^= 0x01
        open(bp, "wb").write(bytes(raw))
        for read in (load_checkpoint, read_checkpoint):
            with pytest.raises(ValueError, match="hash"):
                read(stem)


class TestErrors:
    def test_truncated_blob_rejected(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        _, bp = save_checkpoint(stem, small_params, "warmup", TrainConfig(), 0)
        raw = open(bp, "rb").read()
        open(bp, "wb").write(raw[:-4])
        with pytest.raises(ValueError, match="blob length"):
            load_checkpoint(stem)

    def test_manifest_without_hash_rejected(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        jp, _ = save_checkpoint(stem, small_params, "warmup", TrainConfig(), 0)
        manifest = json.loads(open(jp).read())
        del manifest["blob_sha256"]
        open(jp, "w").write(json.dumps(manifest))
        with pytest.raises(ValueError, match="no blob hash"):
            load_checkpoint(stem)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")


class TestCrashSafety:
    """A kill at any instant of a save never loads mismatched files."""

    @staticmethod
    def _killed_at(monkeypatch, suffix):
        real_replace = os.replace

        def replace(src, dst):
            if os.fspath(dst).endswith(suffix):
                raise KeyboardInterrupt  # the process dies here
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    def test_kill_between_moves_is_detected(self, small_params, tmp_path,
                                            monkeypatch):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), step=1)
        newer = {n: Tensor(t.data + 1.0) for n, t in small_params.items()}
        self._killed_at(monkeypatch, ".json")
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(stem, newer, "warmup", TrainConfig(), step=2)
        monkeypatch.undo()
        # the step-2 blob sits next to the step-1 manifest, same size
        manifest = json.loads((tmp_path / "ck.json").read_text())
        assert manifest["step"] == 1
        assert manifest["blob_bytes"] == (tmp_path / "ck.bin").stat().st_size
        with pytest.raises(ValueError, match="hash"):
            load_checkpoint(stem)
        save_checkpoint(stem, newer, "warmup", TrainConfig(), step=2)
        loaded, manifest = load_checkpoint(stem)
        assert manifest["step"] == 2
        assert np.array_equal(loaded["out.w"].data, newer["out.w"].data)

    def test_kill_before_moves_keeps_previous(self, small_params, tmp_path,
                                              monkeypatch):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), step=1)
        newer = {n: Tensor(t.data + 1.0) for n, t in small_params.items()}
        self._killed_at(monkeypatch, ".bin")
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(stem, newer, "warmup", TrainConfig(), step=2)
        monkeypatch.undo()
        loaded, manifest = load_checkpoint(stem)
        assert manifest["step"] == 1
        assert np.array_equal(loaded["out.w"].data,
                              small_params["out.w"].data)

    def test_resave_byte_identical_and_leaves_no_temp(self, small_params,
                                                      tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), step=4)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        save_checkpoint(stem, small_params, "warmup", TrainConfig(), step=4)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(first) == ["ck.bin", "ck.json"]
        assert first == second
