"""End-to-end command line behavior via subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heronet
from heronet.config import parse_config

# The child interpreter imports the same heronet the tests do, whether it
# came from PYTHONPATH or from pytest's pythonpath setting.
_SRC = str(Path(heronet.__file__).resolve().parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}

TINY = """\
m = 2
n = 1
k = 3
bs = 4
max_seq_len = 32
vocab_size = 256
d_model = 16
n_heads = 2
d_ff = 32
n_layers = 1
d_proj = 8
warmup_epochs = 1
multitask_epochs = 1
adversarial_epochs = 1
rerank_epochs = 1
n_train = 24
n_eval = 8
pool_size = 16
eval_candidates = 8
max_gen_len = 12
n_rollouts = 2
seed = 5
"""


def run_cli(*args, stdin=""):
    return subprocess.run([sys.executable, "-m", "heronet.cli", *args],
                          input=stdin, capture_output=True, text=True,
                          timeout=300, env=_ENV)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    for stage in ("gen-data", "warmup", "pretrain-retrieval", "adv-train",
                  "rerank-train"):
        res = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        assert res.returncode == 0, f"{stage} failed: {res.stderr}"
    return out


class TestParsing:
    def test_help_lists_subcommands(self):
        res = run_cli("--help")
        assert res.returncode == 0
        for cmd in ("gen-data", "warmup", "pretrain-retrieval", "adv-train",
                    "rerank-train", "evaluate", "sweep", "chat"):
            assert cmd in res.stdout

    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        res = run_cli("gen-data", "--config", str(tmp_path / "nope.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_invalid_config_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m = -3\n", encoding="utf-8")
        res = run_cli("gen-data", "--config", str(bad), "--out",
                      str(tmp_path))
        assert res.returncode == 2

    def test_bad_sweep_grid_exits_2(self, tmp_path):
        res = run_cli("sweep", "--m-values", "two", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path):
        res = run_cli("gen-data", "--config", str(cfg_path), "--out",
                      str(tmp_path), "--seed", "9")
        assert res.returncode == 0
        assert parse_config(tmp_path / "config.txt").seed == 9

    def test_ablation_flags_reach_snapshot(self, cfg_path, tmp_path):
        res = run_cli("gen-data", "--config", str(cfg_path), "--out",
                      str(tmp_path), "--no-kg", "--no-reward")
        assert res.returncode == 0
        snap = parse_config(tmp_path / "config.txt")
        assert snap.no_kg is True
        assert snap.no_reward is True
        assert snap.no_multi_learning is False


class TestStageOrder:
    def test_out_of_order_exits_3(self, cfg_path, tmp_path):
        res = run_cli("adv-train", "--config", str(cfg_path), "--out",
                      str(tmp_path))
        assert res.returncode == 3
        assert "stage error" in res.stderr


class TestRun:
    def test_evaluate_writes_report(self, cfg_path, trained):
        res = run_cli("evaluate", "--config", str(cfg_path), "--out",
                      str(trained))
        assert res.returncode == 0
        assert "mrr" in res.stdout
        report = json.loads((trained / "eval_report.json").read_text())
        assert set(report) >= {"bleu", "mrr", "bm25_mrr"}

    def test_sweep_writes_grid(self, cfg_path, trained):
        res = run_cli("sweep", "--config", str(cfg_path), "--out",
                      str(trained), "--m-values", "1,2", "--n-values", "1")
        assert res.returncode == 0
        lines = (trained / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_chat_round_trip(self, cfg_path, trained):
        res = run_cli("chat", "--config", str(cfg_path), "--out",
                      str(trained), stdin="check the flight status\n")
        assert res.returncode == 0
        assert "response:" in res.stdout
