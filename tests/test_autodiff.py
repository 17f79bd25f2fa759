"""Finite-difference checks for every tape primitive, in double precision."""

import inspect
import math
import weakref

import numpy as np
import pytest

from heronet import autodiff as ad

from helpers import log_softmax_then_gather, tape_nodes


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def gradcheck(fn, arrays, tol=1e-6):
    """Check every input's tape gradient of sum(fn(*inputs) * w) against
    central differences, for a fixed random w; returns the output."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    w = np.random.default_rng(0).normal(size=out.data.shape)
    ad.backward(ad.tsum(out * ad.Tensor(w)))
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def f(x, i=i):
            args = [ad.Tensor(x if j == i else arrays[j])
                    for j in range(len(arrays))]
            return float((fn(*args).data * w).sum())

        np.testing.assert_allclose(t.grad, numeric_grad(f, a.copy()),
                                   rtol=tol, atol=tol)
    return out


def primitives_in(out: ad.Tensor) -> set:
    """Names of the autodiff functions that built the nodes of a graph."""
    return {node._backward.__qualname__.split(".")[0]
            for node in tape_nodes(out) if node._backward is not None}


RNG = np.random.default_rng(20240811)


class TestElementwise:
    def test_add_broadcast(self):
        a = ad.Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(RNG.normal(size=(4,)), requires_grad=True)
        ad.backward((ad.add(a, b) * ad.Tensor(RNG.normal(size=(3, 4)))).sum())
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)

    def test_mul_div_sub(self):
        a = RNG.normal(size=(5,)) + 3.0
        for op in (lambda t: t * 2.5, lambda t: t - 0.5):
            gradcheck(op, [a.copy()], tol=1e-7)

    @pytest.mark.parametrize("op", [ad.square, ad.sigmoid, ad.softplus])
    def test_smooth_unary(self, op):
        x = RNG.uniform(0.2, 2.0, size=(4, 3))
        gradcheck(op, [x], tol=1e-7)

    def test_abs_relu_away_from_kink(self):
        x = RNG.choice([-1.0, 1.0], size=20) * RNG.uniform(0.5, 2.0, size=20)
        gradcheck(ad.absolute, [x.copy()], tol=1e-7)
        gradcheck(ad.relu, [x.copy()], tol=1e-7)

    def test_relu_subgradient_zero_at_kink(self):
        t = ad.Tensor(np.zeros(3), requires_grad=True)
        ad.backward(ad.relu(t).sum())
        np.testing.assert_array_equal(t.grad, np.zeros(3))


class TestShapes:
    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        ta = ad.Tensor(a.copy(), requires_grad=True)
        tb = ad.Tensor(b.copy(), requires_grad=True)
        w = RNG.normal(size=(2, 3, 5))
        ad.backward((ad.matmul(ta, tb) * ad.Tensor(w)).sum())
        na = numeric_grad(lambda x: ((x @ b) * w).sum(), a.copy())
        nb = numeric_grad(lambda x: ((a @ x) * w).sum(), b.copy())
        np.testing.assert_allclose(ta.grad, na, atol=1e-7)
        np.testing.assert_allclose(tb.grad, nb, atol=1e-7)

    def test_matmul_broadcast_weight(self):
        a = RNG.normal(size=(2, 3, 4))
        w = RNG.normal(size=(4, 5))
        tw = ad.Tensor(w.copy(), requires_grad=True)
        ad.backward(ad.matmul(ad.Tensor(a), tw).sum())
        nw = numeric_grad(lambda x: (a @ x).sum(), w.copy())
        np.testing.assert_allclose(tw.grad, nw, atol=1e-7)

    @pytest.mark.parametrize("lead", [(2, 3), (2, 3, 2)])
    def test_matmul_flattened_weight_product(self, lead):
        """A 3-D or 4-D lhs against a 2-D rhs runs as one GEMM; both
        gradients must still match finite differences."""
        a = RNG.normal(size=lead + (4,))
        b = RNG.normal(size=(4, 5))
        w = RNG.normal(size=lead + (5,))
        ta = ad.Tensor(a.copy(), requires_grad=True)
        tb = ad.Tensor(b.copy(), requires_grad=True)
        out = ad.matmul(ta, tb)
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-12, atol=1e-12)
        ad.backward((out * ad.Tensor(w)).sum())
        na = numeric_grad(lambda x: ((x @ b) * w).sum(), a.copy())
        nb = numeric_grad(lambda x: ((a @ x) * w).sum(), b.copy())
        assert ta.grad.shape == a.shape and tb.grad.shape == b.shape
        np.testing.assert_allclose(ta.grad, na, atol=1e-7)
        np.testing.assert_allclose(tb.grad, nb, atol=1e-7)

    def test_matmul_mismatched_inner_dim_raises(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((6, 2))))

    def test_reshape_concat_getitem(self):
        x = RNG.normal(size=(2, 6))
        t = ad.Tensor(x.copy(), requires_grad=True)
        y = ad.concat([t.reshape(3, 4), ad.Tensor(np.ones((3, 1)))], axis=1)
        ad.backward((y[:, :3] * 2.0).sum())
        num = numeric_grad(lambda a: (np.concatenate([a.reshape(3, 4), np.ones((3, 1))], axis=1)[:, :3] * 2.0).sum(), x.copy())
        np.testing.assert_allclose(t.grad, num, atol=1e-7)

    def test_sum_mean_axis(self):
        x = RNG.normal(size=(3, 4))
        for red in (lambda t: t.sum(), lambda t: t.mean(), lambda t: t.sum(axis=1).mean(), lambda t: t.mean(axis=0, keepdims=True).sum()):
            t = ad.Tensor(x.copy(), requires_grad=True)
            ad.backward(red(t))
            num = numeric_grad(lambda a: red(ad.Tensor(a)).data, x.copy())
            np.testing.assert_allclose(t.grad, num, atol=1e-8)


class TestFused:
    def test_softmax_matches_composition(self):
        x = RNG.normal(size=(2, 5))
        t = ad.Tensor(x.copy(), requires_grad=True)
        w = RNG.normal(size=(2, 5))
        ad.backward((ad.softmax(t) * ad.Tensor(w)).sum())

        def f(a):
            e = np.exp(a - a.max(axis=-1, keepdims=True))
            return ((e / e.sum(axis=-1, keepdims=True)) * w).sum()

        np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), atol=1e-7)

    def test_layer_norm_all_inputs(self):
        x = RNG.normal(size=(4, 6))
        g = RNG.normal(size=(6,))
        b = RNG.normal(size=(6,))
        w = RNG.normal(size=(4, 6))
        eps = 1e-5

        def ref(xx, gg, bb):
            mu = xx.mean(axis=-1, keepdims=True)
            var = ((xx - mu) ** 2).mean(axis=-1, keepdims=True)
            return (gg * (xx - mu) / np.sqrt(var + eps) + bb)

        tx = ad.Tensor(x.copy(), requires_grad=True)
        tg = ad.Tensor(g.copy(), requires_grad=True)
        tb = ad.Tensor(b.copy(), requires_grad=True)
        ad.backward((ad.layer_norm(tx, tg, tb, eps) * ad.Tensor(w)).sum())
        np.testing.assert_allclose(tx.grad, numeric_grad(lambda a: (ref(a, g, b) * w).sum(), x.copy()), atol=1e-6)
        np.testing.assert_allclose(tg.grad, numeric_grad(lambda a: (ref(x, a, b) * w).sum(), g.copy()), atol=1e-6)
        np.testing.assert_allclose(tb.grad, numeric_grad(lambda a: (ref(x, g, a) * w).sum(), b.copy()), atol=1e-6)

    def test_euclidean_gradient_and_zero_subgradient(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4))
        ta = ad.Tensor(a.copy(), requires_grad=True)
        tb = ad.Tensor(b.copy(), requires_grad=True)
        ad.backward(ad.euclidean(ta, tb).sum())
        na = numeric_grad(lambda x: np.sqrt(((x - b) ** 2).sum(axis=-1)).sum(), a.copy())
        np.testing.assert_allclose(ta.grad, na, atol=1e-6)
        np.testing.assert_allclose(tb.grad, -na, atol=1e-6)

        same = ad.Tensor(a.copy(), requires_grad=True)
        d = ad.euclidean(same, ad.Tensor(a.copy()))
        ad.backward(d.sum())
        assert np.all(np.isfinite(same.grad))
        np.testing.assert_array_equal(same.grad, np.zeros_like(a))

    def test_euclidean_broadcast(self):
        a = RNG.normal(size=(3, 1, 4))
        b = RNG.normal(size=(1, 5, 4))
        ta = ad.Tensor(a.copy(), requires_grad=True)
        ad.backward(ad.euclidean(ta, ad.Tensor(b)).sum())
        na = numeric_grad(lambda x: np.sqrt(((x - b) ** 2).sum(axis=-1)).sum(), a.copy())
        np.testing.assert_allclose(ta.grad, na, atol=1e-6)


class TestTargetLogProb:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_log_softmax_then_gather_bit_for_bit(self, dtype):
        """Value and logits gradient equal the two-node composition in
        every bit, sign bits included, also on rows whose upstream
        gradient is +0.0 or -0.0, as sequence_ce's masked positions get."""
        rng = np.random.default_rng(6)
        logits = (rng.normal(size=(4, 16, 301)) * 4).astype(dtype)
        targets = rng.integers(0, 301, size=(4, 16))
        mask = (rng.random(size=(4, 16)) < 0.7).astype(dtype)
        w = rng.normal(size=(4, 16)).astype(dtype)
        runs = []
        for build in (ad.target_log_prob, log_softmax_then_gather):
            t = ad.Tensor(logits.copy(), requires_grad=True)
            out = build(t, targets)
            ad.backward(ad.tsum(out * ad.Tensor(w * mask)))
            runs.append((out.data, t.grad))
        g = w * mask
        assert {True, False} == set(np.signbit(g[g == 0]))
        for fused, plain in zip(*runs):
            assert fused.dtype == plain.dtype == dtype
            assert fused.tobytes() == plain.tobytes()


class TestGatherEmbedding:
    def test_embedding_accumulates_repeats(self):
        """An embedding lookup is getitem with a 2-D integer key."""
        table = ad.Tensor(RNG.normal(size=(7, 3)), requires_grad=True)
        w = RNG.normal(size=(2, 3, 3))
        ad.backward((ad.getitem(table, _IDS) * ad.Tensor(w)).sum())
        expected = np.zeros((7, 3))
        for r in range(2):
            for c in range(3):
                expected[_IDS[r, c]] += w[r, c]
        np.testing.assert_allclose(table.grad, expected, atol=1e-12)

    def test_getitem_row_key_accumulates_repeats(self):
        rng = np.random.default_rng(3)
        key = np.array([2, 0, 2, -1, 2, 3])
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(6, 3))
        t = ad.Tensor(x.copy(), requires_grad=True)
        ad.backward((ad.getitem(t, key) * ad.Tensor(w)).sum())
        expected = np.zeros_like(x)
        np.add.at(expected, key, w)
        np.testing.assert_allclose(t.grad, expected, rtol=0, atol=1e-12)
        gradcheck(lambda a: ad.getitem(a, key), [x])

    def test_float32_row_sums_stay_near_add_at(self):
        # the grouped sums may add in another order than add.at; in
        # float32 they stay within the stated tolerance of it
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 64, size=(300, 20))
        g = rng.normal(size=(300, 20, 8)).astype(np.float32)
        table = ad.Tensor(np.zeros((64, 8), dtype=np.float32),
                          requires_grad=True)
        ad.backward((ad.getitem(table, ids) * ad.Tensor(g)).sum())
        expected = np.zeros((64, 8), dtype=np.float32)
        np.add.at(expected, ids.ravel(), g.reshape(-1, 8))
        np.testing.assert_allclose(table.grad, expected, rtol=1e-5,
                                   atol=1e-5)


class TestGridRows:
    def test_scatter_zeroes_pads_and_gather_inverts_it(self):
        rng = np.random.default_rng(5)
        mask = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]])
        rows = np.flatnonzero(mask.ravel())
        packed = rng.normal(size=(len(rows), 3))
        grid = ad.scatter_rows(ad.Tensor(packed), rows, mask.shape)
        assert grid.data.shape == (3, 4, 3)
        assert (grid.data[mask == 0] == 0).all()
        np.testing.assert_array_equal(grid.data[mask == 1], packed)
        np.testing.assert_array_equal(ad.gather_rows(grid, rows).data, packed)


class TestMachinery:
    def test_no_grad_blocks_graph(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad

    def test_reused_node_accumulates(self):
        t = ad.Tensor(np.array(2.0), requires_grad=True)
        y = t * t + t * 3.0
        ad.backward(y)
        assert t.grad == pytest.approx(2 * 2.0 + 3.0)

    def test_dropped_intermediate_is_freed(self):
        """tsum's backward reads only a shape, so once the forward code
        drops add's output its array goes at once, with no cycle left for
        the collector, and backward still runs."""
        t = ad.Tensor(np.arange(3.0), requires_grad=True)
        mid = ad.add(t, t)
        freed = weakref.ref(mid.data)
        loss = ad.tsum(mid)
        del mid
        assert freed() is None
        ad.backward(loss)
        np.testing.assert_array_equal(t.grad, [2.0, 2.0, 2.0])

    def test_backward_rejects_nonscalar(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(t * 1.0)

    def test_adam_moves_params_deterministically(self):
        def run():
            p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
            opt = ad.Adam({"p": p}, lr=0.1)
            for _ in range(5):
                opt.zero_grad()
                ad.backward(ad.square(p).sum())
                opt.step()
            return p.data.copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) < np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_adam_refuses_a_non_finite_update(self, bad):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = ad.Adam({"enc.w": p}, lr=0.1)
        p.grad = np.array([bad, 1.0])
        with pytest.raises(FloatingPointError, match="enc.w"):
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])


def unfused_attention(q, k, v, n_heads, kv_mask, causal):
    """Multi-head attention composed from the elementwise, reduction and
    matmul primitives, one head at a time: the reference for ad.attention."""
    b_sz, t_q, d = q.data.shape
    t_k = k.data.shape[1]
    dh = d // n_heads
    bias = (1.0 - kv_mask)[:, None, :] * -1e9
    if causal:
        bias = bias + np.triu(np.full((t_q, t_k), -1e9), k=t_k - t_q + 1)
    heads = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh = ad.reshape(q[:, :, cols], (b_sz, t_q, 1, dh))
        kh = ad.reshape(k[:, :, cols], (b_sz, 1, t_k, dh))
        scores = ad.tsum(qh * kh, axis=-1) * (1.0 / math.sqrt(dh))
        attn = ad.softmax(scores + ad.Tensor(bias))
        heads.append(ad.matmul(attn, v[:, :, cols]))
    return ad.concat(heads, axis=-1)


# (t_q, t_k, kv_mask, causal): padded keys under cross-attention, a causal
# block over its own positions, and cached steps whose queries are the
# last t_q < t_k positions; the long cases reduce the key-major weights
# over more keys than one SIMD block holds
ATTENTION_CASES = {
    "padded-keys": (3, 4, [[1, 1, 1, 0], [1, 1, 0, 0]], False),
    "causal-square": (4, 4, [[1, 1, 1, 1], [1, 1, 1, 0]], True),
    "cached-step": (2, 5, [[1] * 5, [1] * 5], True),
    "cached-one": (1, 5, [[1] * 5, [1, 1, 1, 1, 0]], True),
    "long-padded-keys": (5, 13, [[1] * 13, [1] * 9 + [0] * 4], False),
    "long-causal": (11, 11, [[1] * 11, [1] * 7 + [0] * 4], True),
    "long-cached-one": (1, 17, [[1] * 17, [1] * 17], True),
}


def attention_inputs(case, d=8):
    t_q, t_k, mask, causal = ATTENTION_CASES[case]
    rng = np.random.default_rng(len(case))
    q = rng.normal(size=(2, t_q, d))
    k = rng.normal(size=(2, t_k, d))
    v = rng.normal(size=(2, t_k, d))
    return q, k, v, np.asarray(mask, dtype=np.float64), causal


class TestAttention:
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_gradcheck(self, case, n_heads):
        q, k, v, mask, causal = attention_inputs(case)
        gradcheck(lambda a, b, c: ad.attention(a, b, c, n_heads, mask, causal),
                  [q, k, v])

    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_matches_unfused_composition(self, case, n_heads):
        q, k, v, mask, causal = attention_inputs(case)
        w = RNG.normal(size=q.shape)
        runs = []
        for build in (lambda a, b, c: ad.attention(a, b, c, n_heads, mask,
                                                   causal),
                      lambda a, b, c: unfused_attention(a, b, c, n_heads,
                                                        mask, causal)):
            ts = [ad.Tensor(x.copy(), requires_grad=True) for x in (q, k, v)]
            out = build(*ts)
            ad.backward(ad.tsum(out * ad.Tensor(w)))
            runs.append([out.data] + [t.grad for t in ts])
        for fused, plain in zip(*runs):
            np.testing.assert_allclose(fused, plain, rtol=1e-12, atol=1e-12)

    def test_masked_keys_get_no_weight(self):
        q, k, v, mask, _ = attention_inputs("padded-keys")
        out = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), 2, mask)
        v_junk = v.copy()
        v_junk[mask == 0] = 1e6
        again = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v_junk), 2,
                             mask)
        np.testing.assert_array_equal(out.data, again.data)

    def test_bias_only_when_something_is_masked(self):
        ones = np.ones((2, 5))
        padded = np.array([[1.0] * 5, [1, 1, 1, 0, 0]])
        bias = ad._attention_bias
        assert bias(ones, False, 3, 5, np.float32) is None
        assert bias(ones, True, 1, 5, np.float32) is None  # a cached step
        assert bias(padded, False, 3, 5, np.float32).shape == (2, 1, 1, 5)
        tri = bias(ones, True, 2, 5, np.float32)
        assert tri.shape == (1, 1, 2, 5) and tri.dtype == np.float32
        np.testing.assert_array_equal(tri[0, 0] < 0, [[0, 0, 0, 0, 1],
                                                      [0, 0, 0, 0, 0]])


class TestLinear:
    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_gradcheck(self, lead):
        x = RNG.normal(size=lead + (4,))
        w = RNG.normal(size=(4, 5))
        b = RNG.normal(size=(5,))
        out = gradcheck(ad.linear, [x, w, b])
        np.testing.assert_allclose(out.data, x @ w + b, rtol=1e-12,
                                   atol=1e-12)
        assert primitives_in(out) == {"linear"}


# ---------------------------------------------------------------------------
# every function that records tape nodes has a float64 gradcheck here

# the cases draw from their own stream, leaving RNG's draws to the tests above
CASE_RNG = np.random.default_rng(20240812)


def _positive(*shape):
    return CASE_RNG.uniform(0.5, 2.0, size=shape)


def _away_from_zero(*shape):
    return CASE_RNG.choice([-1.0, 1.0], size=shape) * _positive(*shape)


_IDS = np.array([[1, 1, 4], [0, 1, 6]])
_LAST = np.array([[0, 4, 2], [3, 3, 1]])
_GRID_ROWS = np.array([0, 1, 2, 4, 5])  # real positions of a (2, 3) grid

# primitive -> (a function of float64 leaf tensors using it, the leaves)
GRADCHECKS = {
    "add": (ad.add, [CASE_RNG.normal(size=(3, 4)), CASE_RNG.normal(size=(4,))]),
    "sub": (ad.sub, [CASE_RNG.normal(size=(3, 1)), CASE_RNG.normal(size=(3, 4))]),
    "mul": (ad.mul, [CASE_RNG.normal(size=(3, 4)), CASE_RNG.normal(size=(3, 1))]),
    "neg": (ad.neg, [CASE_RNG.normal(size=(3, 4))]),
    "matmul": (ad.matmul, [CASE_RNG.normal(size=(2, 3, 4)),
                           CASE_RNG.normal(size=(4, 5))]),
    "linear": (ad.linear, [CASE_RNG.normal(size=(2, 3, 4)),
                           CASE_RNG.normal(size=(4, 5)), CASE_RNG.normal(size=(5,))]),
    "square": (ad.square, [CASE_RNG.normal(size=(3, 4))]),
    "absolute": (ad.absolute, [_away_from_zero(3, 4)]),
    "relu": (ad.relu, [_away_from_zero(3, 4)]),
    "sigmoid": (ad.sigmoid, [CASE_RNG.normal(size=(3, 4)) * 3]),
    "softplus": (ad.softplus, [CASE_RNG.normal(size=(3, 4)) * 3]),
    "tsum": (lambda a: ad.tsum(a, axis=1), [CASE_RNG.normal(size=(2, 3, 4))]),
    "tmean": (lambda a: ad.tmean(a, axis=0, keepdims=True),
              [CASE_RNG.normal(size=(3, 4))]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [CASE_RNG.normal(size=(2, 6))]),
    "concat": (lambda a, b: ad.concat([a, b], axis=1),
               [CASE_RNG.normal(size=(2, 3)), CASE_RNG.normal(size=(2, 2))]),
    "getitem": (lambda a: a[1:, ::2], [CASE_RNG.normal(size=(3, 4))]),
    "gather_rows": (lambda a: ad.gather_rows(a, _GRID_ROWS),
                    [CASE_RNG.normal(size=(2, 3, 4))]),
    "scatter_rows": (lambda a: ad.scatter_rows(a, _GRID_ROWS, (2, 3)),
                     [CASE_RNG.normal(size=(5, 4))]),
    "softmax": (ad.softmax, [CASE_RNG.normal(size=(3, 5))]),
    "target_log_prob": (lambda a: ad.target_log_prob(a, _LAST),
                        [CASE_RNG.normal(size=(2, 3, 5))]),
    "attention": (lambda q, k, v: ad.attention(
        q, k, v, 2, np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]]), causal=True),
        [CASE_RNG.normal(size=(2, 3, 4)), CASE_RNG.normal(size=(2, 4, 4)),
         CASE_RNG.normal(size=(2, 4, 4))]),
    "layer_norm": (ad.layer_norm, [CASE_RNG.normal(size=(4, 6)),
                                   CASE_RNG.normal(size=(6,)),
                                   CASE_RNG.normal(size=(6,))]),
    "euclidean": (ad.euclidean, [CASE_RNG.normal(size=(3, 1, 4)),
                                 CASE_RNG.normal(size=(1, 5, 4))]),
}

# operations that left the tape, checked through the primitive that now
# records them: name -> (that primitive, a function of the leaves, the leaves)
FOLDED = {
    "embedding": ("getitem", lambda t: ad.getitem(t, _IDS),
                  [CASE_RNG.normal(size=(7, 3))]),
    "gather_last": ("getitem",
                    lambda a: ad.getitem(a, (*np.indices(_LAST.shape), _LAST)),
                    [CASE_RNG.normal(size=(2, 3, 5))]),
    # the whole log-softmax row: each row tiled once per class, then every
    # class as a target
    "log_softmax": ("target_log_prob", lambda a: ad.target_log_prob(
        ad.getitem(a, np.repeat(np.arange(3), 5).reshape(3, 5)),
        np.tile(np.arange(5), (3, 1))), [CASE_RNG.normal(size=(3, 5))]),
}

# every module-level function of autodiff that calls _make
TAPE_PRIMITIVES = sorted(
    name for name, f in vars(ad).items()
    if inspect.isfunction(f) and f.__module__ == ad.__name__
    and "_make" in f.__code__.co_names)


class TestEveryPrimitive:
    def test_every_tape_primitive_has_a_gradcheck(self):
        assert {"attention", "linear", "matmul", "layer_norm"} <= set(
            TAPE_PRIMITIVES)
        missing = sorted(set(TAPE_PRIMITIVES) - set(GRADCHECKS))
        stale = sorted(set(GRADCHECKS) - set(TAPE_PRIMITIVES))
        assert not missing, f"tape primitives without a gradcheck: {missing}"
        assert not stale, f"gradchecks of no tape primitive: {stale}"

    @pytest.mark.parametrize("name", sorted({**GRADCHECKS, **FOLDED}))
    def test_gradcheck(self, name):
        if name in GRADCHECKS:
            (fn, arrays), primitive = GRADCHECKS[name], name
        else:
            primitive, fn, arrays = FOLDED[name]
        out = gradcheck(fn, arrays)
        assert primitive in primitives_in(out)
