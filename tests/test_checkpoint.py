"""Checkpoint round trips and byte-level stability."""

import json
import os

import numpy as np
import pytest

from heronet.autodiff import Tensor
from heronet.checkpoint import (
    checkpoint_stage,
    load_checkpoint,
    save_checkpoint,
)
from heronet.config import TrainConfig
from heronet.model import ModelConfig, init_params


@pytest.fixture
def small_params():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=10)
    return init_params(cfg, seed=3)


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
    def test_offsets_contiguous(self, small_params, tmp_path):
        stem = tmp_path / "ck"
        jp, bp = save_checkpoint(stem, small_params, "rerank", TrainConfig(),
                                 step=3)
        manifest = json.loads(open(jp).read())
        pos = 0
        for entry in manifest["tensors"]:
            assert entry["offset"] == pos
            want = int(np.prod(entry["shape"])) * 4 if entry["shape"] else 4
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
