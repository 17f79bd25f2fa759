"""End-to-end command line behavior via subprocess."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import heronet
from heronet.config import parse_config

from helpers import strip_pool_rows, swap_pool_queries

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


def run_cli(*args, stdin="", env=None):
    """The CLI's result; stdin given as bytes is fed, and the output read
    back, as bytes."""
    return subprocess.run([sys.executable, "-m", "heronet.cli", *args],
                          input=stdin, capture_output=True,
                          text=not isinstance(stdin, bytes), timeout=300,
                          env={**_ENV, **(env or {})})


def run_chain(cfg_path, out, env=None):
    for stage in ("gen-data", "warmup", "pretrain-retrieval", "adv-train",
                  "rerank-train"):
        res = run_cli(stage, "--config", str(cfg_path), "--out", str(out),
                      env=env)
        assert res.returncode == 0, f"{stage} failed: {res.stderr}"


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    run_chain(cfg_path, out)
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

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_negative_seed_exits_2(self, cfg_path, tmp_path, where):
        """A negative seed, given by --seed or in the config file, is a
        config error, not numpy's traceback, and gen-data writes nothing."""
        config, flags = cfg_path, ["--seed", "-1"]
        if where == "file":
            config = tmp_path / "neg.cfg"
            config.write_text(TINY.replace("seed = 5", "seed = -5"))
            flags = []
        res = run_cli("gen-data", "--config", str(config), "--out",
                      str(tmp_path / "run"), *flags)
        assert res.returncode == 2
        assert res.stderr.splitlines() == ["config error: seed: must be >= 0"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_a_file"])
    def test_gen_data_out_on_a_file_exits_2(self, cfg_path, tmp_path, sub):
        """--out naming a file, or a path under one, is one config error
        line naming --out, not a traceback."""
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        res = run_cli("gen-data", "--config", str(cfg_path), "--out",
                      str(afile / sub))
        assert res.returncode == 2
        [line] = res.stderr.splitlines()
        assert line.startswith("config error: --out: ")
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("cmd", ["pretrain-retrieval", "adv-train"])
    def test_no_retrieval_exits_2_for_stages_that_retrieve(self, trained,
                                                           tmp_path, cmd):
        """m = 0 is a valid serving config, but the stages that mine or
        retrieve m pool entries per query refuse it before reading the
        run directory, which they leave as it was."""
        for item in trained.iterdir():
            if item.is_file():
                shutil.copy(item, tmp_path / item.name)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        config = tmp_path / "m0.cfg"
        config.write_text(TINY.replace("m = 2\n", "m = 0\n")
                          .replace("k = 3\n", "k = 1\n"))
        res = run_cli(cmd, "--config", str(config), "--out", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            f"config error: m: must be >= 1 for {cmd}, which retrieves m "
            "pool entries per query"]
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()
                if f != config} == before

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
        # a warm-up checkpoint in the old two-file layout reads as none
        assert run_cli("gen-data", "--config", str(cfg_path), "--out",
                       str(tmp_path)).returncode == 0
        blob = bytes(8)
        (tmp_path / "ckpt_warmup.bin").write_bytes(blob)
        (tmp_path / "ckpt_warmup.json").write_text(json.dumps(
            {"stage": "warmup", "step": 1, "tensors": [],
             "blob_bytes": len(blob),
             "blob_sha256": hashlib.sha256(blob).hexdigest()}, indent=2))
        res = run_cli("pretrain-retrieval", "--config", str(cfg_path),
                      "--out", str(tmp_path))
        assert res.returncode == 3
        assert "run warmup first" in res.stderr

    @pytest.mark.parametrize("damage", ["strip_rows", "edit_pool"])
    def test_stale_pool_rows_exit_3(self, cfg_path, trained, tmp_path,
                                    damage):
        """Chat and evaluate refuse a rerank checkpoint without pool rows,
        or with rows of another pool, and name the stage that writes them."""
        for item in trained.iterdir():
            if item.is_file():
                shutil.copy(item, tmp_path / item.name)
        if damage == "strip_rows":
            strip_pool_rows(tmp_path, parse_config(cfg_path))
        else:
            swap_pool_queries(tmp_path)
        for cmd, stdin in (("evaluate", ""), ("chat", "hi\n")):
            res = run_cli(cmd, "--config", str(cfg_path), "--out",
                          str(tmp_path), stdin=stdin)
            assert res.returncode == 3, cmd
            assert "heronet rerank-train" in res.stderr


    def test_checkpoints_of_another_vocabulary_exit_3(self, cfg_path,
                                                      trained, tmp_path):
        """gen-data run again with another seed over a trained run writes
        another vocab.json; the next training stage refuses the checkpoints
        trained under the old one and names warmup."""
        for item in trained.iterdir():
            if item.is_file():
                shutil.copy(item, tmp_path / item.name)
        res = run_cli("gen-data", "--config", str(cfg_path), "--out",
                      str(tmp_path), "--seed", "6")
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "vocab.json").read_bytes() != \
            (trained / "vocab.json").read_bytes()
        res = run_cli("adv-train", "--config", str(cfg_path), "--out",
                      str(tmp_path))
        assert res.returncode == 3
        assert "heronet warmup" in res.stderr

    def test_manifest_without_vocab_digest_exits_3(self, cfg_path, trained,
                                                   tmp_path):
        """A rerank checkpoint whose manifest records no vocabulary digest,
        as those made before manifests recorded it, is refused, not read
        another way: chat and evaluate name rerank-train."""
        for item in trained.iterdir():
            if item.is_file():
                shutil.copy(item, tmp_path / item.name)
        path = tmp_path / "ckpt_rerank"
        head, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(head)
        del manifest["vocab_sha256"]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        for cmd, stdin in (("evaluate", ""), ("chat", "hi\n")):
            res = run_cli(cmd, "--config", str(cfg_path), "--out",
                          str(tmp_path), stdin=stdin)
            assert res.returncode == 3, cmd
            assert "heronet rerank-train" in res.stderr

    @pytest.mark.parametrize("damage", ["no_vocab", "other_size"])
    def test_missing_or_resized_vocab_exits_3(self, cfg_path, trained,
                                              tmp_path, damage):
        """A training stage and chat refuse a run directory without
        vocab.json, or a config whose vocab_size is not the one it was
        built with, and name gen-data."""
        config = cfg_path
        if damage == "other_size":
            config = tmp_path / "resized.cfg"
            config.write_text(TINY.replace("vocab_size = 256",
                                           "vocab_size = 300"))
        out = tmp_path / "run"
        out.mkdir()
        for item in trained.iterdir():
            if item.is_file() and not (damage == "no_vocab"
                                       and item.name == "vocab.json"):
                shutil.copy(item, out / item.name)
        for cmd, stdin in (("rerank-train", ""), ("chat", "hi\n")):
            res = run_cli(cmd, "--config", str(config), "--out", str(out),
                          stdin=stdin)
            assert res.returncode == 3, cmd
            assert "heronet gen-data" in res.stderr

    @pytest.mark.parametrize("damage", ["clusters", "vocab", "blob",
                                        "manifest"])
    def test_unreadable_artifact_exits_3(self, cfg_path, trained, tmp_path,
                                         damage):
        """A run artifact that does not read back ends in one stage error
        line naming the file and the command that writes it, not a
        traceback."""
        for item in trained.iterdir():
            if item.is_file():
                shutil.copy(item, tmp_path / item.name)
        if damage == "clusters":
            name, cmd, fix = "clusters.json", "evaluate", "gen-data"
            (tmp_path / name).write_text("[1, 2]\n")
        elif damage == "vocab":
            name, cmd, fix = "vocab.json", "chat", "gen-data"
            rec = json.loads((tmp_path / name).read_text())
            del rec["tokens"]
            (tmp_path / name).write_text(json.dumps(rec))
        elif damage == "blob":
            name, cmd, fix = "ckpt_rerank", "chat", "rerank-train"
            raw = bytearray((tmp_path / name).read_bytes())
            raw[-1] ^= 0xFF
            (tmp_path / name).write_bytes(bytes(raw))
        else:
            name, cmd, fix = "ckpt_rerank", "chat", "rerank-train"
            head, _, blob = (tmp_path / name).read_bytes().partition(b"\n")
            manifest = json.loads(head)
            del manifest["stage"]
            (tmp_path / name).write_bytes(json.dumps(manifest).encode()
                                          + b"\n" + blob)
        res = run_cli(cmd, "--config", str(cfg_path), "--out", str(tmp_path),
                      stdin="hi\n")
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        [line] = res.stderr.splitlines()
        assert line.startswith("stage error: ") and name in line
        assert line.endswith(f"run heronet {fix} again")


class TestBlasPin:
    def test_one_thread_before_numpy_loads(self):
        """Importing the CLI sets every BLAS thread variable to 1, and
        numpy, which reads them once as it loads, loads after that."""
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"]
        code = textwrap.dedent(f"""
            import json, os, sys
            names, seen = {names!r}, []

            class NumpyImport:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append([os.environ.get(n) for n in names])

            sys.meta_path.insert(0, NumpyImport())
            import heronet.cli
            print(json.dumps({{"at_numpy_import": seen,
                              "after": [os.environ[n] for n in names]}}))
            """)
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=120,
                             env={**_ENV, **dict.fromkeys(names, "4")})
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"at_numpy_import": [["1"] * 3],
                                          "after": ["1"] * 3}


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

    def test_chat_answers_a_pad_line(self, cfg_path, trained):
        """A line holding the literal [PAD] token is answered like any line
        of unknown words, and the session goes on to the next one."""
        res = run_cli("chat", "--config", str(cfg_path), "--out",
                      str(trained), stdin="[PAD]\n[PAD] numpy\n")
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("response:") == 2

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_chat_answers_a_line_that_is_not_utf8(self, trained, tmp_path,
                                                  errors):
        """A line holding a byte that is not UTF-8 is answered, whatever
        error handler the interpreter gives stdin; at n = 2 its sampled
        candidate is drawn from the stream its bytes key."""
        config = tmp_path / "n2.cfg"
        config.write_text(TINY.replace("n = 1", "n = 2"), encoding="utf-8")
        res = run_cli("chat", "--config", str(config), "--out", str(trained),
                      stdin=b"hello \xff there\nsecond\n",
                      env={"PYTHONIOENCODING": f"utf-8:{errors}"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.count(b"response:") == 2

    def test_texts_longer_than_max_seq_len_are_cut(self, tmp_path):
        """At max_seq_len = 12 many pool and training texts are longer;
        each is cut where it is encoded, so every stage, evaluate and a
        chat line exit 0."""
        path = tmp_path / "short.cfg"
        path.write_text(TINY.replace("max_seq_len = 32", "max_seq_len = 12")
                        .replace("max_gen_len = 12", "max_gen_len = 8"),
                        encoding="utf-8")
        out = tmp_path / "run"
        run_chain(path, out)
        res = run_cli("evaluate", "--config", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        line = "please check the status of my flight to the city " * 2
        res = run_cli("chat", "--config", str(path), "--out", str(out),
                      stdin=line + "\n")
        assert res.returncode == 0, res.stderr
        assert "response:" in res.stdout


class TestDeterminism:
    def test_second_chain_is_byte_identical(self, cfg_path, trained,
                                            tmp_path):
        """The same chain again, started with two BLAS threads asked for,
        writes byte-identical checkpoints and the same loss logs but for
        their wall-clock column."""
        run_chain(cfg_path, tmp_path, env={"OPENBLAS_NUM_THREADS": "2"})
        ckpts = sorted(p.name for p in trained.glob("ckpt_*"))
        assert ckpts == ["ckpt_adversarial", "ckpt_rerank",
                         "ckpt_retrieval", "ckpt_warmup"]
        assert sorted(p.name for p in tmp_path.glob("ckpt_*")) == ckpts
        for name in ckpts:
            assert (tmp_path / name).read_bytes() == \
                (trained / name).read_bytes(), name
        logs = sorted(p.name for p in (trained / "logs").iterdir())
        assert logs == sorted(p.name for p in (tmp_path / "logs").iterdir())
        for name in logs:
            assert _without_seconds(tmp_path / "logs" / name) == \
                _without_seconds(trained / "logs" / name), name


def _without_seconds(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(rows[0]) if col != "seconds"]
    assert len(keep) == len(rows[0]) - 1
    return [[row[i] for i in keep] for row in rows]
