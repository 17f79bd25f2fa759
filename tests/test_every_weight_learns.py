"""Every tensor a training stage's optimizer holds gets a gradient.

A tensor that an optimizer holds but no loss reaches learns nothing, and
Adam scales the round-off it does get up to lr-sized steps, so it drifts.
The guard runs the stage chain at the tiny config in float64, where
round-off stays near 1e-16, with a spy on Adam.step: each tensor of each
optimizer of each stage must see a largest |grad| above FLOOR on some
step.  psi_m.w_m weighs p_q, p_r and |p_q - p_r| in three blocks, and
each block is checked on its own.  Both encoder layouts run: the shared
one, and the single-task ablation's second SQD encoder.
"""

import numpy as np
import pytest

from heronet import autodiff as ad
from heronet import pipeline
from heronet.autodiff import Tensor
from heronet.model import init_params

from helpers import tiny_config

FLOOR = 1e-10
STAGES = {"warmup": pipeline.stage_warmup,
          "retrieval": pipeline.stage_retrieval,
          "adversarial": pipeline.stage_adversarial,
          "rerank": pipeline.stage_rerank_train}
W_M_BLOCKS = ("p_q", "p_r", "|p_q - p_r|")


def _float64(params: dict) -> dict:
    return {n: Tensor(t.data.astype(np.float64), requires_grad=True)
            for n, t in params.items()}


def peak_grads(cfg, out, monkeypatch) -> dict:
    """Run the chain under out in float64; the largest |grad| each tensor
    got, by "stage/optimizer index/name".  A tensor the optimizer holds
    that never got a gradient peaks at 0."""
    monkeypatch.setattr(pipeline, "init_params",
                        lambda mcfg, seed: init_params(mcfg, seed, np.float64))
    load = pipeline._load_stage
    monkeypatch.setattr(pipeline, "_load_stage",
                        lambda where, stage: _float64(load(where, stage)))
    peaks, optimizers, stage = {}, [], [None]
    step = ad.Adam.step

    def spy(opt):
        if not any(o is opt for o in optimizers):
            optimizers.append(opt)
        index = next(i for i, o in enumerate(optimizers) if o is opt)
        for name, p in opt.params.items():
            g = np.zeros(1) if p.grad is None else np.abs(p.grad)
            got = {name: g.max()}
            if name == "psi_m.w_m":
                got.update((f"{name}[{block}]", row.max()) for block, row
                           in zip(W_M_BLOCKS, g.reshape(3, -1)))
            for key, value in got.items():
                key = f"{stage[0]}/{index}/{key}"
                peaks[key] = max(peaks.get(key, 0.0), float(value))
        step(opt)

    monkeypatch.setattr(ad.Adam, "step", spy)
    pipeline.stage_gen_data(cfg, out)
    for stage[0], run in STAGES.items():
        optimizers.clear()
        run(cfg, out)
    return peaks


@pytest.mark.parametrize("no_multi_learning", [False, True],
                         ids=["shared", "ablation"])
def test_every_held_tensor_gets_a_gradient(tmp_path, monkeypatch,
                                           no_multi_learning):
    cfg = tiny_config()
    cfg.no_multi_learning = no_multi_learning
    peaks = peak_grads(cfg, tmp_path, monkeypatch)
    assert {key.split("/")[0] for key in peaks} == set(STAGES)
    assert any(key.startswith("retrieval/0/sqd_enc.") for key in peaks) == \
        no_multi_learning
    dead = {key: peak for key, peak in peaks.items() if peak <= FLOOR}
    assert dead == {}, f"largest |grad| at most {FLOOR}: {dead}"
