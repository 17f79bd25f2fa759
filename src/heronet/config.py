"""Run configuration.

Config files are line-oriented `key = value` text.  `#` starts a comment,
blank lines are skipped, unknown keys are rejected with their line number,
and absent keys take the desk-scale defaults below.  The field comments
note the full-scale values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class ConfigError(Exception):
    """Malformed config text or an invariant violation."""


@dataclass
class TrainConfig:
    # candidate mixing
    m: int = 20              # retrieved candidates (full-scale: 20)
    n: int = 1               # generated candidates (full-scale: 1)
    k: int = 5               # retrieved outputs shown beside the response
    # model and batching (desk profile)
    bs: int = 16             # full-scale: 64
    max_seq_len: int = 64    # full-scale: 256
    vocab_size: int = 512
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    n_layers: int = 2
    d_proj: int = 64
    # stage epochs (desk profile)
    warmup_epochs: int = 3        # full-scale: 5
    multitask_epochs: int = 5     # full-scale: 10
    adversarial_epochs: int = 10  # full-scale: 20
    rerank_epochs: int = 3
    # learning rates
    warmup_lr: float = 4e-4
    retrieval_lr: float = 1e-4
    g_lr: float = 2e-4
    d_lr: float = 1e-4
    # loss shape
    delta1: float = 0.5      # hinge margin, retrieved negatives
    delta2: float = 0.5      # hinge margin, generated negatives
    reg_lambda: float = 1e-4
    alpha: float = 0.5       # policy-gradient weight in the fused loss
    sqd_margin: float = 1.0
    # data and mining
    n_train: int = 1000
    n_eval: int = 200
    pool_size: int = 500
    eval_candidates: int = 100
    word_dropout: float = 0.15
    # decoding
    max_gen_len: int = 32
    n_rollouts: int = 1
    # run control
    seed: int = 7
    no_kg: bool = False
    no_reward: bool = False
    no_multi_learning: bool = False


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _coerce(key: str, value: str, target: type, lineno: int):
    if target is bool:
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"line {lineno}: {key} expects true/false, "
                              f"got {value!r}")
        return _BOOL_WORDS[word]
    try:
        return target(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects {target.__name__}, "
                          f"got {value!r}") from None


def validate_config(cfg: TrainConfig) -> None:
    def fail(field, msg):
        raise ConfigError(f"{field}: {msg}")

    if cfg.m < 0:
        fail("m", "must be >= 0")
    if cfg.n < 0:
        fail("n", "must be >= 0")
    if cfg.m == 0 and cfg.n == 0:
        fail("m", "m and n cannot both be 0")
    if not 1 <= cfg.k <= cfg.m + cfg.n:
        fail("k", f"must be in [1, m+n] = [1, {cfg.m + cfg.n}]")
    if cfg.bs < 1:
        fail("bs", "must be >= 1")
    if cfg.max_seq_len < 8:
        fail("max_seq_len", "must be >= 8")
    if cfg.vocab_size <= 6:
        fail("vocab_size", "must exceed the 6 reserved tokens")
    if cfg.n_heads < 1:
        fail("n_heads", "must be >= 1")
    if cfg.d_model < 1 or cfg.d_model % cfg.n_heads:
        fail("d_model", "must be positive and divisible by n_heads")
    if cfg.d_ff < 1:
        fail("d_ff", "must be >= 1")
    if cfg.n_layers < 1:
        fail("n_layers", "must be >= 1")
    if cfg.d_proj < 2:
        fail("d_proj", "must be >= 2")
    for name in ("warmup_epochs", "multitask_epochs", "adversarial_epochs",
                 "rerank_epochs"):
        if getattr(cfg, name) < 1:
            fail(name, "must be >= 1")
    for name in ("warmup_lr", "retrieval_lr", "g_lr", "d_lr"):
        if getattr(cfg, name) <= 0:
            fail(name, "must be > 0")
    for name in ("delta1", "delta2", "sqd_margin"):
        if getattr(cfg, name) < 0:
            fail(name, "must be >= 0")
    if cfg.reg_lambda < 0:
        fail("reg_lambda", "must be >= 0")
    if cfg.alpha < 0:
        fail("alpha", "must be >= 0")
    if not 0 <= cfg.word_dropout < 1:
        fail("word_dropout", "must be in [0, 1)")
    for name in ("n_train", "n_eval", "pool_size"):
        if getattr(cfg, name) < 1:
            fail(name, "must be >= 1")
    if cfg.pool_size < cfg.n_eval:
        fail("pool_size", "must cover the eval split (>= n_eval)")
    if cfg.eval_candidates < 2:
        fail("eval_candidates", "must be >= 2")
    if cfg.eval_candidates > cfg.pool_size:
        fail("eval_candidates", "cannot exceed pool_size")
    if cfg.max_gen_len < 1 or cfg.max_gen_len >= cfg.max_seq_len:
        fail("max_gen_len", "must be in [1, max_seq_len)")
    if cfg.n_rollouts < 1:
        fail("n_rollouts", "must be >= 1")


def parse_config(path) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    cfg = TrainConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        setattr(cfg, key, _coerce(key, value, types[key], lineno))
    validate_config(cfg)
    return cfg


def render_config(cfg: TrainConfig) -> str:
    """key = value lines that parse_config reads back to the same values."""
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        out.append(f"{f.name} = {v}")
    return "\n".join(out) + "\n"
