"""Stage chain, logs, reports, sweep, and chat behavior on a tiny run."""

import csv
import hashlib
import io
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heronet import pipeline
from heronet.checkpoint import (checkpoint_stage, load_checkpoint,
                                read_checkpoint)
from heronet.config import TrainConfig, parse_config, render_config
from heronet.corpus import splice_context
from heronet.generation import GenLossReport
from heronet.model import params_fingerprint
from heronet.pipeline import (NumericalAbort, StageOrderError, load_world,
                              run_chat, stage_adversarial,
                              stage_evaluate, stage_gen_data,
                              stage_rerank_train, stage_retrieval,
                              stage_sweep, stage_warmup)
from heronet.retrieval import (PoolCache, build_pool_cache, pool_token_lists,
                               restore_pool_cache)

from helpers import strip_pool_rows, swap_pool_queries, tiny_config


@pytest.fixture(scope="module")
def cfg():
    return tiny_config()


@pytest.fixture(scope="module")
def run_dir(cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    stage_gen_data(cfg, out)
    stage_warmup(cfg, out)
    stage_retrieval(cfg, out)
    stage_adversarial(cfg, out)
    stage_rerank_train(cfg, out)
    return out


def read_log(out, name):
    with open(Path(out) / "logs" / f"{name}.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestGenData:
    def test_writes_corpus_and_snapshot(self, cfg, run_dir):
        for f in ("train.jsonl", "valid.jsonl", "test.jsonl", "pool.jsonl",
                  "clusters.json", "config.txt", "vocab.json"):
            assert (run_dir / f).exists()
        corpus, vocab, mcfg = load_world(cfg, run_dir)
        assert len(corpus.train) == cfg.n_train
        assert len(corpus.test) == cfg.n_eval
        assert corpus.pool.size == cfg.pool_size
        assert mcfg.vocab_size == vocab.size

    def test_config_snapshot_round_trips(self, cfg, run_dir):
        assert parse_config(run_dir / "config.txt") == cfg

    def test_render_config_round_trips_defaults(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(render_config(TrainConfig()), encoding="utf-8")
        assert parse_config(path) == TrainConfig()


class TestStageChain:
    def test_checkpoints_carry_stage_tags(self, run_dir):
        for stage, stem in (("warmup", "ckpt_warmup"),
                            ("retrieval", "ckpt_retrieval"),
                            ("adversarial", "ckpt_adversarial"),
                            ("rerank", "ckpt_rerank")):
            assert checkpoint_stage(run_dir / stem) == stage

    def test_warmup_log_has_baseline_row(self, cfg, run_dir):
        header, rows = read_log(run_dir, "warmup")
        assert header == ["epoch", "stage", "train_ce", "val_ce", "seconds"]
        assert len(rows) == cfg.warmup_epochs + 1
        assert rows[0][0] == "0" and rows[0][2] == ""
        assert float(rows[0][3]) > 0
        for row in rows[1:]:
            assert np.isfinite(float(row[2]))
            assert np.isfinite(float(row[3]))

    def test_training_logs_have_expected_shape(self, cfg, run_dir):
        for name, cols, epochs in (
                ("retrieval", ["epoch", "stage", "sqd_loss", "qrm_loss",
                               "seconds"], cfg.multitask_epochs),
                ("adversarial", ["epoch", "stage", "g_ce", "g_pg", "g_fused",
                                 "d_hinge", "alpha", "seconds"],
                 cfg.adversarial_epochs),
                ("rerank", ["epoch", "stage", "bce", "seconds"],
                 cfg.rerank_epochs)):
            header, rows = read_log(run_dir, name)
            assert header == cols
            assert len(rows) == epochs
            for row in rows:
                for cell in row[2:]:
                    assert np.isfinite(float(cell))

    def test_step_counts_optimizer_steps(self, cfg, run_dir):
        batches = -(-cfg.n_train // cfg.bs)
        for stage, epochs in (("warmup", cfg.warmup_epochs),
                              ("retrieval", cfg.multitask_epochs),
                              ("adversarial", cfg.adversarial_epochs),
                              ("rerank", cfg.rerank_epochs)):
            _, manifest = load_checkpoint(run_dir / f"ckpt_{stage}")
            assert manifest["step"] == epochs * batches, stage
            assert manifest["epoch"] == epochs, stage

    def test_rerank_leaves_encoder_untouched(self, run_dir):
        before, _ = load_checkpoint(run_dir / "ckpt_adversarial")
        after, _ = load_checkpoint(run_dir / "ckpt_rerank")
        names = sorted(k for k in before if not k.startswith("psi_m."))
        assert params_fingerprint(before, names) == \
            params_fingerprint(after, names)
        head = sorted(k for k in before if k.startswith("psi_m."))
        assert params_fingerprint(before, head) != \
            params_fingerprint(after, head)


def copy_run(src, dest, skip=()):
    for item in src.iterdir():
        if item.is_file() and item.name not in skip:
            shutil.copy(item, dest / item.name)


def spy_pool_encodes(monkeypatch) -> tuple:
    """Spy on every binding of build_pool_cache and encode_mean_pool.

    Returns the list of pool-cache builds and the list of token tuples
    sent to either encoder, both filled as calls happen.
    """
    from heronet import generation, model, retrieval

    builds, encoded = [], []
    real_build, real_encode = retrieval.build_pool_cache, \
        model.encode_mean_pool

    def build_spy(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    def encode_spy(params, cfg, seqs):
        encoded.extend(tuple(s) for s in seqs)
        return real_encode(params, cfg, seqs)

    for mod in (pipeline, retrieval):
        monkeypatch.setattr(mod, "build_pool_cache", build_spy)
    for mod in (model, pipeline, generation, retrieval):
        monkeypatch.setattr(mod, "encode_mean_pool", encode_spy)
    return builds, encoded


class TestVocabArtifact:
    """gen-data builds the vocabulary once and writes vocab.json; every
    later step reads it."""

    def test_file_equals_a_count_of_the_corpus_files(self, cfg, run_dir):
        from heronet.corpus import (Corpus, build_vocab, read_pairs,
                                    read_pool, read_vocab)
        back = Corpus(*(read_pairs(run_dir / f"{split}.jsonl")
                        for split in ("train", "valid", "test")),
                      read_pool(run_dir / "pool.jsonl"))
        vocab, max_size = read_vocab(run_dir / "vocab.json")
        assert max_size == cfg.vocab_size
        assert vocab.id_to_token == \
            build_vocab(back, cfg.vocab_size).id_to_token
        assert load_world(cfg, run_dir)[1].id_to_token == vocab.id_to_token

    def test_no_later_step_counts_tokens(self, cfg, tmp_path, monkeypatch):
        from heronet import corpus

        stage_gen_data(cfg, tmp_path)
        counted, real = [], corpus.build_vocab

        def spy(*args, **kwargs):
            counted.append(args)
            return real(*args, **kwargs)

        for mod in (corpus, pipeline):
            monkeypatch.setattr(mod, "build_vocab", spy)
        for stage in (stage_warmup, stage_retrieval, stage_adversarial,
                      stage_rerank_train, stage_evaluate, stage_sweep):
            stage(cfg, tmp_path)
        run_chat(cfg, tmp_path, stdin=io.StringIO("book a table\n"),
                 stdout=io.StringIO())
        assert counted == []

    def test_chat_reads_no_split_file(self, cfg, run_dir, tmp_path):
        copy_run(run_dir, tmp_path, skip={"train.jsonl", "valid.jsonl",
                                          "test.jsonl", "clusters.json"})
        lines = "check the flight status\n\nwhere is my order\n"
        said = []
        for out in (run_dir, tmp_path):
            stdout = io.StringIO()
            assert run_chat(cfg, out, stdin=io.StringIO(lines),
                            stdout=stdout) == 0
            said.append(stdout.getvalue())
        assert said[0] == said[1]

    @pytest.mark.parametrize("damage", ["no_vocab", "other_size"])
    def test_missing_or_resized_vocab_is_a_stage_error(self, cfg, run_dir,
                                                       tmp_path, damage):
        """No stage builds a vocabulary of its own: without vocab.json, or
        with one built for another vocab_size, every reader sends the user
        back to gen-data."""
        copy_run(run_dir, tmp_path, skip={"vocab.json"}
                 if damage == "no_vocab" else ())
        if damage == "other_size":
            cfg = replace(cfg, vocab_size=cfg.vocab_size + 1)
        for stage in (stage_warmup, stage_retrieval, stage_adversarial,
                      stage_rerank_train, stage_evaluate, stage_sweep):
            with pytest.raises(StageOrderError, match="heronet gen-data"):
                stage(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="heronet gen-data"):
            run_chat(cfg, tmp_path, stdin=io.StringIO("hi\n"),
                     stdout=io.StringIO())


class TestClusterSidecar:
    def test_ids_match_the_generator(self, cfg, run_dir):
        from heronet.corpus import generate_synthetic_corpus
        corpus, _, _ = load_world(cfg, run_dir)
        mem = generate_synthetic_corpus(seed=cfg.seed, n_train=cfg.n_train,
                                        n_eval=cfg.n_eval,
                                        pool_size=cfg.pool_size)
        assert all(p.cluster_id is not None for p in corpus.all_pairs())
        assert [p.cluster_id for p in corpus.all_pairs()] == \
            [p.cluster_id for p in mem.all_pairs()]
        assert [e.cluster_id for e in corpus.pool.entries] == \
            [e.cluster_id for e in mem.pool.entries]

    def test_missing_sidecar_is_a_stage_error(self, cfg, run_dir, tmp_path):
        """Every stage after gen-data, evaluate and sweep send the user
        back to gen-data (exit 3) without clusters.json; chat needs none."""
        from heronet import cli

        copy_run(run_dir, tmp_path, skip={"clusters.json"})
        for stage in (stage_warmup, stage_retrieval, stage_adversarial,
                      stage_rerank_train, stage_evaluate, stage_sweep):
            with pytest.raises(StageOrderError,
                               match="clusters.json.*heronet gen-data"):
                stage(cfg, tmp_path)
        (tmp_path / "run.cfg").write_text(render_config(cfg), encoding="utf-8")
        assert cli.main(["evaluate", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(tmp_path)]) == 3
        assert run_chat(cfg, tmp_path, stdin=io.StringIO("hi\n"),
                        stdout=io.StringIO()) == 0

    @pytest.mark.parametrize("damage", [
        "short_pool", "missing_split", "not_an_object", "null_id",
        "string_id", "float_id", "bool_id"])
    def test_mismatched_sidecar_is_rejected(self, cfg, run_dir, tmp_path,
                                            damage):
        copy_run(run_dir, tmp_path)
        ids = json.loads((tmp_path / "clusters.json").read_text())
        if damage == "short_pool":
            ids["pool"].pop()
        elif damage == "missing_split":
            del ids["valid"]
        elif damage == "not_an_object":
            ids = ids["train"]
        else:
            ids["test"][1] = {"null_id": None, "string_id": "3",
                              "float_id": 3.0, "bool_id": True}[damage]
        (tmp_path / "clusters.json").write_text(json.dumps(ids))
        with pytest.raises(StageOrderError,
                           match="clusters.json.*heronet gen-data again"):
            load_world(cfg, tmp_path)


class TestRetrievalStage:
    def test_encodes_no_pool_response_outside_a_step(self, cfg, run_dir,
                                                     tmp_path, monkeypatch):
        """Mining reads the pool's query rows only: gradient-free encodes
        cover pool and anchor queries, never a pool response."""
        from heronet import model, retrieval

        copy_run(run_dir, tmp_path)
        frozen = set()
        real_encode = model.encode_mean_pool

        def encode_spy(params, cfg, seqs):
            hidden, pooled = real_encode(params, cfg, seqs)
            if not pooled.requires_grad:
                frozen.update(tuple(s) for s in seqs)
            return hidden, pooled

        for mod in (model, retrieval):
            monkeypatch.setattr(mod, "encode_mean_pool", encode_spy)
        stage_retrieval(cfg, tmp_path)
        corpus, vocab, _ = load_world(cfg, tmp_path)
        pool_q = {tuple(ids)
                  for ids in pool_token_lists(corpus.pool, vocab, "query")}
        responses = {tuple(ids) for ids in
                     pool_token_lists(corpus.pool, vocab, "response")}
        assert pool_q <= frozen
        assert not frozen & (responses - pool_q)


class TestStageOrder:
    def test_every_stage_requires_the_previous(self, cfg, tmp_path):
        with pytest.raises(StageOrderError, match="gen-data"):
            stage_warmup(cfg, tmp_path)
        stage_gen_data(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="warmup"):
            stage_retrieval(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="pretrain-retrieval"):
            stage_adversarial(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="adv-train"):
            stage_rerank_train(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="rerank-train"):
            stage_evaluate(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="adv-train"):
            stage_sweep(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="rerank-train"):
            run_chat(cfg, tmp_path, stdin=io.StringIO("hi\n"),
                     stdout=io.StringIO())

    def test_mislabeled_checkpoint_is_rejected(self, cfg, run_dir, tmp_path):
        stage_gen_data(cfg, tmp_path)
        shutil.copy(run_dir / "ckpt_warmup", tmp_path / "ckpt_retrieval")
        with pytest.raises(StageOrderError, match="warmup"):
            stage_adversarial(cfg, tmp_path)

    def test_non_finite_loss_aborts(self, cfg, tmp_path, monkeypatch):
        stage_gen_data(cfg, tmp_path)
        nan = float("nan")
        monkeypatch.setattr(pipeline, "pg_step",
                            lambda *a, **k: GenLossReport(nan, 0.0, nan))
        with pytest.raises(NumericalAbort, match="warmup"):
            stage_warmup(cfg, tmp_path)
        assert checkpoint_stage(tmp_path / "ckpt_warmup") is None

    def test_abort_keeps_the_last_epoch(self, cfg, tmp_path, monkeypatch):
        """A non-finite loss in epoch 2 leaves epoch 1's checkpoint and
        log rows on disk."""
        cfg = replace(cfg, warmup_epochs=3)
        stage_gen_data(cfg, tmp_path)
        batches = -(-cfg.n_train // cfg.bs)
        real_step, calls = pipeline.pg_step, []

        def step(*args, **kwargs):
            calls.append(1)
            if len(calls) > batches:
                return GenLossReport(float("nan"), 0.0, float("nan"))
            return real_step(*args, **kwargs)

        monkeypatch.setattr(pipeline, "pg_step", step)
        with pytest.raises(NumericalAbort, match="warmup"):
            stage_warmup(cfg, tmp_path)
        _, manifest = load_checkpoint(tmp_path / "ckpt_warmup")
        assert manifest["step"] == batches
        _, rows = read_log(tmp_path, "warmup")
        assert [row[0] for row in rows] == ["0", "1"]

    def test_non_finite_update_aborts(self, cfg, run_dir, tmp_path,
                                      monkeypatch):
        """An infinite gradient behind a finite loss, in epoch 2's first
        discriminator step, ends in NumericalAbort naming the parameter,
        with epoch 1's checkpoint and log row left on disk."""
        from heronet import autodiff

        cfg = replace(cfg, adversarial_epochs=2)
        copy_run(run_dir, tmp_path,
                 skip={"ckpt_adversarial"})
        batches = -(-cfg.n_train // cfg.bs)
        real_load, real_backward = pipeline._load_stage, autodiff.backward
        held, calls = {}, []

        def load(out, stage):
            held["params"] = real_load(out, stage)
            return held["params"]

        def backward(loss):
            real_backward(loss)
            calls.append(1)
            # each chunk takes a generator step, then a discriminator step
            if len(calls) == 2 * batches + 2:
                tok = held["params"]["embed.tok"]
                tok.grad = np.full_like(tok.grad, np.inf)

        monkeypatch.setattr(pipeline, "_load_stage", load)
        monkeypatch.setattr(autodiff, "backward", backward)
        with pytest.raises(NumericalAbort,
                           match="embed.tok in adversarial stage"):
            stage_adversarial(cfg, tmp_path)
        _, manifest = load_checkpoint(tmp_path / "ckpt_adversarial")
        assert manifest["step"] == batches
        _, rows = read_log(tmp_path, "adversarial")
        assert [row[0] for row in rows] == ["1"]


class TestKillAtEveryWrite:
    def test_checkpoint_leads_the_log(self, cfg, tmp_path, monkeypatch):
        """Warm-up killed at each of its file moves in turn leaves either
        no checkpoint (at the first move) or one that loads and holds the
        last or the new epoch, with the log's rows ending at that epoch or
        the one before; pretrain-retrieval then runs, or names the stage
        to run first."""
        cfg = replace(cfg, warmup_epochs=3)
        data = tmp_path / "data"
        data.mkdir()
        stage_gen_data(cfg, data)
        batches = -(-cfg.n_train // cfg.bs)
        real_replace = os.replace

        def run_killed_at(out, at):
            """Warm-up in a copy of data, os.replace failing at call `at`
            (never when None); the number of moves it made."""
            out.mkdir()
            copy_run(data, out)
            moves = []

            def replace_(src, dst):
                if len(moves) == at:
                    raise KeyboardInterrupt  # the process dies here
                moves.append(dst)
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace_)
            try:
                stage_warmup(cfg, out)
            except KeyboardInterrupt:
                assert at is not None
            finally:
                monkeypatch.undo()
            return len(moves)

        total = run_killed_at(tmp_path / "whole", None)
        assert total == 2 * cfg.warmup_epochs
        for i in range(total):
            out = tmp_path / f"killed{i}"
            assert run_killed_at(out, i) == i
            # the interrupted move removed its temporary file
            assert not list(out.rglob("*.tmp"))
            if i == 0:
                assert checkpoint_stage(out / "ckpt_warmup") is None
                with pytest.raises(StageOrderError, match="run warmup"):
                    stage_retrieval(cfg, out)
                continue
            _, manifest = load_checkpoint(out / "ckpt_warmup")
            # a kill at epoch e's checkpoint move keeps epoch e - 1, one at
            # its log move keeps e
            epoch = manifest["epoch"]
            assert epoch == (i + 1) // 2
            assert manifest["step"] == epoch * batches
            logged = 0
            if (out / "logs" / "warmup.csv").exists():
                logged = int(read_log(out, "warmup")[1][-1][0])
            assert logged == i // 2 and logged in (epoch, epoch - 1)
            stage_retrieval(cfg, out)
            assert checkpoint_stage(out / "ckpt_retrieval") == "retrieval"


class TestEvaluate:
    def test_report_keys_and_ranges(self, cfg, run_dir):
        report = stage_evaluate(cfg, run_dir)
        assert list(report) == ["bleu", "rouge_l", "meteor", "chrf", "mrr",
                                "acc", "hit@5", "hit@10", "hit@50",
                                "bm25_mrr", "rank1_retrieved",
                                "rank1_generated"]
        for key in ("mrr", "acc", "hit@5", "hit@10", "hit@50", "bm25_mrr",
                    "rank1_retrieved", "rank1_generated"):
            assert 0.0 <= report[key] <= 1.0
        # every served answer is retrieved or generated
        assert report["rank1_retrieved"] + report["rank1_generated"] == \
            pytest.approx(1.0)
        for key in ("bleu", "rouge_l", "chrf"):
            assert 0.0 <= report[key] <= 100.0
        assert 0.0 <= report["meteor"] <= 1.0
        on_disk = json.loads((run_dir / "eval_report.json").read_text())
        assert on_disk == pytest.approx(report)

    def test_trace_records_sorted_candidates(self, cfg, run_dir):
        report = stage_evaluate(cfg, run_dir)
        lines = (run_dir / "rerank_trace.jsonl").read_text().splitlines()
        assert len(lines) == cfg.n_eval
        first = []
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["query_id"] == i
            cands = rec["candidates"]
            assert [c["rank"] for c in cands] == list(range(1,
                                                            len(cands) + 1))
            scores = [c["score"] for c in cands]
            assert scores == sorted(scores, reverse=True)
            # the served set: no gold response is added
            assert all(c["provenance"] in ("retrieved", "generated")
                       for c in cands)
            first.append(cands[0]["provenance"])
        # the report's provenance mix counts the trace's rank-1 entries
        assert report["rank1_retrieved"] == \
            first.count("retrieved") / len(first)
        assert report["rank1_generated"] == \
            first.count("generated") / len(first)

    @pytest.mark.parametrize("n", [1, 3])
    def test_scores_what_chat_serves(self, cfg, run_dir, monkeypatch, n):
        """The hypotheses evaluate scores are chat's response lines for
        each test pair's source text."""
        cfg = replace(cfg, n=n)
        corpus, vocab, mcfg = load_world(cfg, run_dir)
        params, cache = pipeline._load_served(run_dir)
        scored = []
        real_report = pipeline.generation_report

        def report_spy(hyps, refs):
            scored.extend(hyps)
            return real_report(hyps, refs)

        monkeypatch.setattr(pipeline, "generation_report", report_spy)
        pipeline.evaluate_params(params, cache, cfg, corpus, vocab, mcfg)
        stdout = io.StringIO()
        run_chat(cfg, run_dir, stdout=stdout, stdin=io.StringIO(
            "".join(splice_context(p) + "\n" for p in corpus.test)))
        served = [line[len("response: "):]
                  for line in stdout.getvalue().splitlines()
                  if line.startswith("response:")]
        assert len(scored) == cfg.n_eval
        assert scored == served

    @pytest.mark.parametrize("n", [1, 3])
    def test_chunk_size_changes_nothing(self, cfg, run_dir, tmp_path, n):
        # test queries are drawn bs at a time; the report and every scored
        # set must not depend on it, nor, with n > 1, the sampled extras
        # that each query draws from its own stream
        corpus, vocab, mcfg = load_world(cfg, run_dir)
        params, cache = pipeline._load_served(run_dir)
        got = []
        for bs in (1, 4):
            out = tmp_path / f"bs{bs}"
            out.mkdir()
            report = pipeline.evaluate_params(
                params, cache, replace(cfg, n=n, bs=bs), corpus, vocab, mcfg,
                out)
            got.append((report, (out / "rerank_trace.jsonl").read_text()))
        assert got[0] == got[1]

    def test_eval_candidates_must_fit_pool(self, cfg, run_dir):
        bad = replace(cfg, eval_candidates=cfg.pool_size + 1)
        with pytest.raises(ValueError, match="eval_candidates"):
            stage_evaluate(bad, run_dir)


class TestSweep:
    def test_matching_cell_reproduces_evaluate(self, cfg, run_dir):
        report = stage_evaluate(cfg, run_dir)
        ckpt_bytes = (run_dir / "ckpt_rerank").read_bytes()
        rows = stage_sweep(cfg, run_dir, [cfg.m], [cfg.n])
        assert len(rows) == 1
        m, n, *metrics = rows[0]
        assert (m, n) == (cfg.m, cfg.n)
        expected = [report[k] for k in ("bleu", "rouge_l", "meteor", "chrf",
                                        "mrr", "acc", "hit@5", "hit@10",
                                        "hit@50")]
        assert metrics == expected
        assert (run_dir / "ckpt_rerank").read_bytes() == ckpt_bytes

    def test_grid_csv_shape(self, cfg, run_dir):
        stage_sweep(cfg, run_dir, [1, 2], [1])
        with open(run_dir / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "n", "bleu", "rouge_l", "meteor", "chrf",
                           "mrr", "acc", "hit@5", "hit@10", "hit@50"]
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        for row in rows[1:]:
            for cell in row[2:]:
                assert np.isfinite(float(cell))

    def test_grid_builds_the_pool_once(self, cfg, run_dir, monkeypatch):
        """Every cell starts from the adversarial checkpoint's frozen
        encoder: the grid's re-rank stages and evaluations all read one
        pool cache."""
        builds, _ = spy_pool_encodes(monkeypatch)
        stage_sweep(cfg, run_dir, [1, 2], [1, 2])
        assert len(builds) == 1

    def test_invalid_cell_is_a_config_error(self, cfg, run_dir):
        from heronet.config import ConfigError
        with pytest.raises(ConfigError):
            stage_sweep(cfg, run_dir, [-1], [1])


@pytest.fixture(scope="module")
def abl_cfg(cfg):
    return replace(cfg, no_multi_learning=True)


@pytest.fixture(scope="module")
def abl_run_dir(abl_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    stage_gen_data(abl_cfg, out)
    stage_warmup(abl_cfg, out)
    stage_retrieval(abl_cfg, out)
    stage_adversarial(abl_cfg, out)
    stage_rerank_train(abl_cfg, out)
    return out


@pytest.fixture(params=["shared_encoder", "no_multi_learning"])
def chain(request):
    """(config, run dir) of the full chain, then of the ablation with a
    separate SQD encoder."""
    if request.param == "shared_encoder":
        return (request.getfixturevalue("cfg"),
                request.getfixturevalue("run_dir"))
    return (request.getfixturevalue("abl_cfg"),
            request.getfixturevalue("abl_run_dir"))


class TestStoredPoolRows:
    """rerank-train stores the pool rows of its frozen encoder, and the
    token ids they were encoded from, in its checkpoint; evaluate and chat
    read them instead of encoding or tokenizing the pool."""

    def test_rows_equal_a_fresh_build(self, chain):
        """The stored rows, and the token ids they were encoded from, are
        those a fresh build over the tokenized pool makes; the stored
        digest is pool.jsonl's."""
        cfg, out = chain
        corpus, vocab, mcfg = load_world(cfg, out)
        params, _, (digest, rows, ids) = read_checkpoint(out / "ckpt_rerank")
        built = build_pool_cache(params, mcfg, vocab, corpus.pool)
        assert digest == hashlib.sha256(
            (out / "pool.jsonl").read_bytes()).hexdigest()
        assert all(a.dtype == np.int32 for a in ids.values())
        stored = restore_pool_cache(rows, ids)
        assert stored.query_ids == built.query_ids
        assert stored.resp_ids == built.resp_ids
        for name in ("query_emb", "resp_emb"):
            want = getattr(built, name)
            assert rows[name].dtype == want.dtype == np.float32
            assert rows[name].tobytes() == want.tobytes()

    def test_chat_set_up_reads_no_pool_text(self, chain, monkeypatch):
        """Chat set-up neither parses pool.jsonl nor tokenizes a text, and
        chat answers as it does from a cache over the tokenized pool."""
        from heronet import corpus as corpus_mod
        from heronet import generation, rerank, retrieval

        cfg, out = chain
        lines = "check the flight status\n\nbook a table\nwhere is my order\n"

        def load_tokenized(out):
            corpus, vocab, _ = load_world(cfg, out)
            params, _, (_, rows, _) = read_checkpoint(out / "ckpt_rerank")
            return params, PoolCache(
                pool_token_lists(corpus.pool, vocab, "query"),
                pool_token_lists(corpus.pool, vocab, "response"),
                rows["query_emb"], rows["resp_emb"])

        said = []
        for load in (load_tokenized, pipeline._load_served):
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "_load_served", load)
                stdout = io.StringIO()
                run_chat(cfg, out, stdin=io.StringIO(lines), stdout=stdout)
                said.append(stdout.getvalue())
        assert said[0] == said[1]
        calls = []
        for mod in (corpus_mod, pipeline, retrieval, generation, rerank):
            for name in ("read_pool", "encode_text"):
                if hasattr(mod, name):
                    def spy(*args, _name=name, _real=getattr(mod, name),
                            **kwargs):
                        calls.append(_name)
                        return _real(*args, **kwargs)
                    monkeypatch.setattr(mod, name, spy)
        # no input lines, so every call would be the set-up's
        run_chat(cfg, out, stdin=io.StringIO(""), stdout=io.StringIO())
        assert calls == []

    def test_evaluate_encodes_no_pool_entry(self, chain, monkeypatch):
        """Evaluate encodes its test queries, sources and generated
        candidates; a pool query reaches an encoder only as a test query,
        a pool response never."""
        from heronet.corpus import encode_text

        cfg, out = chain
        corpus, vocab, mcfg = load_world(cfg, out)
        builds, encoded = spy_pool_encodes(monkeypatch)
        stage_evaluate(cfg, out)
        rows = set(encoded)
        pool_q, pool_r = ({tuple(ids) for ids in
                           pool_token_lists(corpus.pool, vocab, kind)}
                          for kind in ("query", "response"))
        test_q = {tuple(encode_text(p.query, vocab, mcfg.max_seq_len))
                  for p in corpus.test}
        assert builds == [] and rows
        assert not rows & pool_r
        assert rows & pool_q <= test_q

    @pytest.mark.parametrize("damage", ["strip_rows", "edit_pool"])
    def test_stale_rows_are_a_stage_error(self, cfg, run_dir, tmp_path,
                                          damage):
        """A rerank checkpoint without rows, or a pool edited after
        rerank-train, sends the user back to rerank-train, which mends
        it."""
        copy_run(run_dir, tmp_path)
        if damage == "strip_rows":
            strip_pool_rows(tmp_path, cfg)
        else:
            swap_pool_queries(tmp_path)
        with pytest.raises(StageOrderError, match="heronet rerank-train"):
            stage_evaluate(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="heronet rerank-train"):
            run_chat(cfg, tmp_path, stdin=io.StringIO("hi\n"),
                     stdout=io.StringIO())
        stage_rerank_train(cfg, tmp_path)
        assert run_chat(cfg, tmp_path, stdin=io.StringIO("hi\n"),
                        stdout=io.StringIO()) == 0

    def test_rewritten_vocab_is_a_stage_error(self, cfg, run_dir, tmp_path):
        """A vocab.json rewritten after rerank-train, here with two tokens
        trading ids, no longer indexes the trained embeddings: evaluate
        and chat refuse the checkpoint and send the user back to warmup."""
        from heronet.corpus import Vocab, read_vocab, write_vocab

        copy_run(run_dir, tmp_path)
        vocab, max_size = read_vocab(tmp_path / "vocab.json")
        tokens = list(vocab.id_to_token)
        tokens[-1], tokens[-2] = tokens[-2], tokens[-1]
        write_vocab(tmp_path / "vocab.json", Vocab(tokens), max_size)
        with pytest.raises(StageOrderError, match="heronet warmup"):
            stage_evaluate(cfg, tmp_path)
        with pytest.raises(StageOrderError, match="heronet warmup"):
            run_chat(cfg, tmp_path, stdin=io.StringIO("hi\n"),
                     stdout=io.StringIO())


class TestAblations:
    def test_separate_encoder_persists_through_chain(self, abl_cfg,
                                                     abl_run_dir):
        for stage in ("retrieval", "adversarial", "rerank"):
            params, _ = load_checkpoint(abl_run_dir / f"ckpt_{stage}")
            assert any(k.startswith("sqd_enc.") for k in params)
        report = stage_evaluate(abl_cfg, abl_run_dir)
        assert all(np.isfinite(v) for v in report.values())

    def test_chat_set_up_encodes_nothing(self, abl_cfg, abl_run_dir,
                                         monkeypatch):
        """With a separate SQD encoder too, chat reads the pool rows from
        the rerank checkpoint: its set-up builds no pool cache and sends
        nothing to either encoder."""
        builds, encoded = spy_pool_encodes(monkeypatch)
        # no input lines, so every encoding would be the set-up's
        run_chat(abl_cfg, abl_run_dir, stdin=io.StringIO(""),
                 stdout=io.StringIO())
        assert builds == [] and encoded == []

    def test_full_chain_has_single_encoder(self, run_dir):
        params, _ = load_checkpoint(run_dir / "ckpt_rerank")
        assert not any(k.startswith("sqd_enc.") for k in params)

    def test_no_reward_zeroes_policy_gradient(self, cfg, run_dir, tmp_path):
        copy_run(run_dir, tmp_path)
        stage_adversarial(replace(cfg, no_reward=True), tmp_path)
        _, rows = read_log(tmp_path, "adversarial")
        for row in rows:
            assert float(row[3]) == 0.0   # g_pg
            assert float(row[6]) == 0.0   # alpha
            assert float(row[2]) == float(row[4])  # fused == ce

    def test_no_reward_encodes_each_source_once(self, cfg, run_dir, tmp_path,
                                                monkeypatch):
        """Without the reward the rollouts, which the discriminator reads
        as negatives, still come from the one encode pg_step trains
        through: each chunk's sources reach the encoder once."""
        from heronet import generation, model, retrieval

        copy_run(run_dir, tmp_path)
        encoded, sources = [], []
        real_encode, real_step = model.encode_mean_pool, pipeline.pg_step

        def encode_spy(params, cfg, seqs):
            encoded.append(tuple(tuple(s) for s in seqs))
            return real_encode(params, cfg, seqs)

        def step_spy(params, cfg, src_ids, *args, **kwargs):
            sources.append(tuple(tuple(s) for s in src_ids))
            return real_step(params, cfg, src_ids, *args, **kwargs)

        for mod in (model, pipeline, generation, retrieval):
            monkeypatch.setattr(mod, "encode_mean_pool", encode_spy)
        monkeypatch.setattr(pipeline, "pg_step", step_spy)
        stage_adversarial(replace(cfg, no_reward=True), tmp_path)
        assert len(sources) == -(-cfg.n_train // cfg.bs)
        for src in sources:
            assert encoded.count(src) == 1


class TestChat:
    def test_replies_and_ignores_blank_lines(self, cfg, run_dir):
        stdin = io.StringIO("check the flight status\n\nbook a table\n")
        stdout = io.StringIO()
        assert run_chat(cfg, run_dir, stdin=stdin, stdout=stdout) == 0
        text = stdout.getvalue()
        assert text.count("response:") == 2
        assert "(empty query ignored)" in text
        assert f"top {cfg.k} candidates:" in text
        assert "[retrieved" in text or "[generated" in text
        assert "[truth" not in text

    def test_encodes_each_query_once(self, cfg, run_dir, monkeypatch):
        """Per line the encoder sees the query once, the knowledge-spliced
        source, and the generated candidates that are not pool responses;
        before the first line, nothing: the pool rows come from the rerank
        checkpoint."""
        from collections import Counter

        from heronet import generation, model, rerank, retrieval
        from heronet.corpus import encode_text
        from heronet.generation import knowledge_sources

        events = []
        real_encode = model.encode_mean_pool

        def encode_spy(params, cfg, seqs):
            events.append(("rows", [tuple(s) for s in seqs]))
            return real_encode(params, cfg, seqs)

        for mod in (model, pipeline, generation, retrieval):
            monkeypatch.setattr(mod, "encode_mean_pool", encode_spy)
        real_generate = rerank.generate_candidates

        def generate_spy(*args, **kwargs):
            drawn = real_generate(*args, **kwargs)
            events.append(("drawn", (drawn, args[4])))
            return drawn

        monkeypatch.setattr(rerank, "generate_candidates", generate_spy)
        queries = ["check the flight status", "book a table",
                   "where is my order", "cancel my booking please"]

        def feed():
            for q in queries:
                events.append(("line", q))
                yield q + "\n"

        run_chat(cfg, run_dir, stdin=feed(), stdout=io.StringIO())
        corpus, vocab, mcfg = load_world(cfg, run_dir)
        responses = {tuple(ids) for ids in
                     pool_token_lists(corpus.pool, vocab, "response")}
        starts = [i for i, (kind, _) in enumerate(events) if kind == "line"]
        assert len(starts) == len(queries)
        assert starts[0] == 0
        for lo, hi in zip(starts, starts[1:] + [len(events)]):
            query = events[lo][1]
            rows = [row for kind, got in events[lo + 1:hi] if kind == "rows"
                    for row in got]
            [(([(generated, retrieved)], _), cache)] = [
                got for kind, got in events[lo + 1:hi] if kind == "drawn"]
            q_ids = tuple(encode_text(query, vocab, mcfg.max_seq_len))
            [src] = knowledge_sources([list(q_ids)], [retrieved], cache, True,
                                      mcfg.max_seq_len)
            assert retrieved and tuple(src) != q_ids
            want = [q_ids, tuple(src)]
            want += [g for g in dict.fromkeys(map(tuple, generated))
                     if g not in responses]
            assert Counter(rows) == Counter(want)
            assert rows.count(q_ids) == 1

    def test_same_query_is_deterministic(self, cfg, run_dir):
        outs = []
        for _ in range(2):
            stdout = io.StringIO()
            run_chat(cfg, run_dir, stdin=io.StringIO("where is my order\n"),
                     stdout=stdout)
            outs.append(stdout.getvalue())
        assert outs[0] == outs[1]
