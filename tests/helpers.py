"""Shared test utilities."""

from heronet.autodiff import Tensor
from heronet.config import TrainConfig


def clone_params(params: dict) -> dict:
    """Deep copy of a parameter store; detached from any graph."""
    return {n: Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for n, t in params.items()}


def tiny_config() -> TrainConfig:
    """A stage chain that runs in seconds: one epoch per training stage."""
    return TrainConfig(m=2, n=1, k=3, bs=4, max_seq_len=32, vocab_size=256,
                       d_model=16, n_heads=2, d_ff=32, n_layers=1, d_proj=8,
                       warmup_epochs=1, multitask_epochs=1,
                       adversarial_epochs=1, rerank_epochs=1, n_train=24,
                       n_eval=8, pool_size=16, eval_candidates=8,
                       max_gen_len=12, n_rollouts=2, seed=5)
