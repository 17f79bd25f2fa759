"""Config parsing, defaults, and invariant enforcement."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heronet.config import (
    ConfigError,
    TrainConfig,
    parse_config,
    render_config,
    validate_config,
)


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg == TrainConfig()

    def test_candidate_counts(self, tmp_path):
        cfg = parse_config(write(tmp_path, "m = 20\nn = 1\n"))
        assert cfg.m == 20 and cfg.n == 1

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(write(tmp_path,
                                 "# header\n\nm = 5   # default: 20\n\n"))
        assert cfg.m == 5

    def test_bool_and_float_coercion(self, tmp_path):
        cfg = parse_config(write(tmp_path,
                                 "no_kg = true\ng_lr = 3e-4\nseed = 11\n"))
        assert cfg.no_kg is True
        assert cfg.g_lr == pytest.approx(3e-4)
        assert cfg.seed == 11

    def test_unknown_key_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2.*mystery"):
            parse_config(write(tmp_path, "m = 5\nmystery = 1\n"))

    def test_repeated_key_names_both_lines(self, tmp_path):
        with pytest.raises(ConfigError, match="line 4: 'm' given again, "
                                              "first at line 1"):
            parse_config(write(tmp_path, "m = 3\nn = 1\n\nm = 4\n"))

    def test_malformed_line_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write(tmp_path, "just words\n"))

    def test_bad_int_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*bs"):
            parse_config(write(tmp_path, "bs = lots\n"))

    def test_bad_bool_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no_reward"):
            parse_config(write(tmp_path, "no_reward = maybe\n"))

    def test_empty_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write(tmp_path, "m =\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")


class TestInvariants:
    def test_negative_m_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="^m:"):
            parse_config(write(tmp_path, "m = -1\n"))

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_names_field(self, tmp_path, seed):
        # numpy's generators take no negative seed
        with pytest.raises(ConfigError, match="^seed:"):
            parse_config(write(tmp_path, f"seed = {seed}\n"))

    def test_m_and_n_not_both_zero(self, tmp_path):
        with pytest.raises(ConfigError, match="both"):
            parse_config(write(tmp_path, "m = 0\nn = 0\nk = 1\n"))

    def test_k_bounded_by_candidates(self, tmp_path):
        with pytest.raises(ConfigError, match="^k:"):
            parse_config(write(tmp_path, "m = 2\nn = 1\nk = 4\n"))
        cfg = parse_config(write(tmp_path, "m = 2\nn = 1\nk = 3\n"))
        assert cfg.k == 3  # k = m + n, a whole served set, allowed

    def test_rates_positive(self, tmp_path):
        with pytest.raises(ConfigError, match="d_lr"):
            parse_config(write(tmp_path, "d_lr = 0\n"))

    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)
                                      if f.type in (float, "float")])
    def test_non_finite_float_rejected(self, tmp_path, name):
        # nan fails every comparison, so a bound alone would let it through
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"^{name}: must be finite"):
                parse_config(write(tmp_path, f"{name} = {value}\n"))

    def test_dropout_range(self, tmp_path):
        with pytest.raises(ConfigError, match="word_dropout"):
            parse_config(write(tmp_path, "word_dropout = 1.0\n"))

    def test_pool_covers_eval(self, tmp_path):
        with pytest.raises(ConfigError, match="pool_size"):
            parse_config(write(tmp_path, "pool_size = 100\nn_eval = 150\n"))

    def test_heads_divide_model(self, tmp_path):
        with pytest.raises(ConfigError, match="d_model"):
            parse_config(write(tmp_path, "d_model = 50\nn_heads = 4\n"))

    @pytest.mark.parametrize("heads", [0, -4])
    def test_heads_at_least_one(self, tmp_path, heads):
        # checked before d_model % n_heads, which 0 would divide by
        with pytest.raises(ConfigError, match="^n_heads:"):
            parse_config(write(tmp_path, f"n_heads = {heads}\n"))

    def test_gen_len_below_seq_len(self, tmp_path):
        with pytest.raises(ConfigError, match="max_gen_len"):
            parse_config(write(tmp_path, "max_gen_len = 64\n"))

    def test_validate_direct(self):
        cfg = TrainConfig()
        validate_config(cfg)
        cfg.eval_candidates = 1000
        with pytest.raises(ConfigError, match="eval_candidates"):
            validate_config(cfg)


@st.composite
def valid_configs(draw):
    """Any config validate_config accepts, fields drawn across their range."""
    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    rate = st.floats(1e-8, 10.0)
    weight = st.floats(0.0, 100.0)
    m, n = ints(0, 50), ints(0, 5)
    if m == n == 0:
        n = 1
    n_heads, max_seq_len, pool_size = ints(1, 8), ints(8, 512), ints(2, 5000)
    return TrainConfig(
        m=m, n=n, k=ints(1, m + n), bs=ints(1, 512),
        max_seq_len=max_seq_len, vocab_size=ints(7, 10**5),
        d_model=n_heads * ints(1, 64), n_heads=n_heads, d_ff=ints(1, 4096),
        n_layers=ints(1, 24), d_proj=ints(2, 512),
        warmup_epochs=ints(1, 100), multitask_epochs=ints(1, 100),
        adversarial_epochs=ints(1, 100), rerank_epochs=ints(1, 100),
        warmup_lr=draw(rate), retrieval_lr=draw(rate), g_lr=draw(rate),
        d_lr=draw(rate), delta1=draw(weight), delta2=draw(weight),
        reg_lambda=draw(weight), alpha=draw(weight),
        sqd_margin=draw(weight), n_train=ints(1, 10**6),
        n_eval=ints(1, pool_size), pool_size=pool_size,
        eval_candidates=ints(2, pool_size),
        word_dropout=draw(st.floats(0.0, 1.0, exclude_max=True)),
        max_gen_len=ints(1, max_seq_len - 1), n_rollouts=ints(1, 16),
        seed=ints(0, 2**32 - 1), no_kg=draw(st.booleans()),
        no_reward=draw(st.booleans()),
        no_multi_learning=draw(st.booleans()))


@given(valid_configs())
def test_render_then_parse_round_trips(tmp_path_factory, cfg):
    validate_config(cfg)
    path = tmp_path_factory.getbasetemp() / "rendered.cfg"
    path.write_text(render_config(cfg), encoding="utf-8")
    assert parse_config(path) == cfg
