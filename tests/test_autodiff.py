"""Finite-difference checks for every tape primitive, in double precision."""

import numpy as np
import pytest

from heronet import autodiff as ad


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


def check_unary(op, x, tol=1e-7):
    t = ad.Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    ad.backward(out)

    def f(arr):
        return op(ad.Tensor(arr)).data.sum()

    num = numeric_grad(f, x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


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
        for op in (lambda t: t * 2.5, lambda t: 1.0 / t, lambda t: t - 0.5, lambda t: ad.div(ad.Tensor(np.ones(5)), t)):
            check_unary(op, a.copy())

    @pytest.mark.parametrize("op", [ad.exp, ad.log, ad.log1p, ad.sqrt, ad.square, ad.sigmoid, ad.softplus])
    def test_smooth_unary(self, op):
        x = RNG.uniform(0.2, 2.0, size=(4, 3))
        check_unary(op, x)

    def test_abs_relu_away_from_kink(self):
        x = RNG.choice([-1.0, 1.0], size=20) * RNG.uniform(0.5, 2.0, size=20)
        check_unary(ad.absolute, x.copy())
        check_unary(ad.relu, x.copy())

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

    def test_reshape_transpose_concat_getitem(self):
        x = RNG.normal(size=(2, 6))
        t = ad.Tensor(x.copy(), requires_grad=True)
        y = ad.concat([t.reshape(3, 4).transpose((1, 0)), ad.Tensor(np.ones((4, 1)))], axis=1)
        ad.backward((y[:, :3] * 2.0).sum())
        num = numeric_grad(lambda a: (np.concatenate([a.reshape(3, 4).T, np.ones((4, 1))], axis=1)[:, :3] * 2.0).sum(), x.copy())
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

    def test_log_softmax(self):
        x = RNG.normal(size=(3, 4))
        t = ad.Tensor(x.copy(), requires_grad=True)
        w = RNG.normal(size=(3, 4))
        ad.backward((ad.log_softmax(t) * ad.Tensor(w)).sum())

        def f(a):
            s = a - a.max(axis=-1, keepdims=True)
            return ((s - np.log(np.exp(s).sum(axis=-1, keepdims=True))) * w).sum()

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


class TestGatherEmbedding:
    def test_embedding_accumulates_repeats(self):
        table = ad.Tensor(RNG.normal(size=(7, 3)), requires_grad=True)
        ids = np.array([[1, 1, 4], [0, 1, 6]])
        w = RNG.normal(size=(2, 3, 3))
        ad.backward((ad.embedding(table, ids) * ad.Tensor(w)).sum())
        expected = np.zeros((7, 3))
        for r in range(2):
            for c in range(3):
                expected[ids[r, c]] += w[r, c]
        np.testing.assert_allclose(table.grad, expected, atol=1e-12)

    def test_gather_last(self):
        x = RNG.normal(size=(2, 3, 5))
        idx = RNG.integers(0, 5, size=(2, 3))
        t = ad.Tensor(x.copy(), requires_grad=True)
        ad.backward(ad.gather_last(t, idx).sum())
        expected = np.zeros_like(x)
        for i in range(2):
            for j in range(3):
                expected[i, j, idx[i, j]] = 1.0
        np.testing.assert_allclose(t.grad, expected, atol=1e-12)


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
