import numpy as np
import pytest
from scipy import sparse

from walklab import autodiff as ad
from walklab.errors import InputError


def _numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f()
        flat_x[i] = orig - h
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * h)
    return g


class TestOps:
    def test_mse_hand_value(self):
        p = ad.parameter(np.zeros((1, 1)))
        loss = ad.mse(p, np.array([2.0]))
        assert loss.item() == 4.0
        ad.backward(loss)
        assert p.grad.tolist() == [[-4.0]]

    def test_mse_mean_semantics(self):
        p = ad.constant(np.array([[1.0], [3.0]]))
        assert ad.mse(p, np.array([2.0, 2.0])).item() == 1.0

    def test_zero_upstream_gradient(self):
        w = ad.parameter(np.ones((2, 2)))
        x = ad.constant(np.ones((2, 2)))
        loss = ad.mse(ad.matmul(x, w), np.zeros((2, 2)))
        ad.backward(loss, seed=np.zeros((1, 1)))
        assert not w.grad.any()

    def test_sigmoid_extremes_and_midpoint(self):
        t = ad.constant(np.array([[0.0, 800.0, -800.0]]))
        s = ad.sigmoid(t)
        assert s.value.tolist() == [[0.5, 1.0, 0.0]]

    def test_sigmoid_matches_sign_split_formula_bitwise(self):
        v = np.linspace(-800.0, 800.0, 100_001).reshape(1, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))
        assert np.array_equal(ad.sigmoid(ad.constant(v)).value, want)

    def test_leaky_relu_values(self):
        x = ad.constant(np.array([[-2.0, 3.0]]))
        y = ad.leaky_relu(x, 0.01)
        assert y.value.tolist() == [[-0.02, 3.0]]

    def test_dropout_training_scaling(self):
        rng = np.random.default_rng(0)
        x = ad.constant(np.ones((1000, 1)))
        y = ad.dropout(x, 0.25, rng)
        kept = y.value[y.value > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(y.value.mean() - 1.0) < 0.1

    def test_row_sum_backward_broadcasts(self):
        x = ad.parameter(np.arange(6, dtype=float).reshape(3, 2))
        s = ad.row_sum(x)
        assert s.value.tolist() == [[6.0, 9.0]]
        ad.backward(s, seed=np.array([[1.0, 2.0]]))
        assert x.grad.tolist() == [[1.0, 2.0]] * 3

    def test_shape_validation(self):
        with pytest.raises(InputError):
            ad.Tensor(np.zeros((2, 2, 2)))
        with pytest.raises(InputError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
        with pytest.raises(InputError):
            ad.scalar_mul(ad.constant(np.ones((2, 1))), ad.constant(np.ones((2, 1))))
        with pytest.raises(InputError):
            ad.mse(ad.constant(np.ones((2, 1))), np.ones((3, 1)))


class TestGradients:
    def test_dense_chain_matches_numeric(self):
        rng = np.random.default_rng(1)
        xv = rng.normal(size=(4, 3))
        wv = rng.normal(size=(3, 2))
        bv = rng.normal(size=(1, 2))
        target = rng.normal(size=(1, 2))

        def build():
            x = ad.constant(xv)
            w = ad.parameter(wv)
            b = ad.parameter(bv)
            h = ad.leaky_relu(ad.add(ad.matmul(x, w), b), 0.01)
            loss = ad.mse(ad.row_sum(h), target)
            return loss, w, b

        loss, w, b = build()
        ad.backward(loss)
        for val, tensor in ((wv, w), (bv, b)):
            num = _numeric_grad(lambda: build()[0].item(), val)
            assert np.allclose(tensor.grad, num, rtol=1e-5, atol=1e-7)

    def test_struct_mul_and_gates_match_numeric(self):
        rng = np.random.default_rng(2)
        s = sparse.csr_array(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
        xv = rng.normal(size=(3, 2))
        thetav = np.array([[0.3]])
        diag = np.array([2.0, 0.0, 4.0])

        def build():
            x = ad.constant(xv)
            theta = ad.parameter(thetav)
            gated = ad.scalar_mul(ad.sigmoid(theta), ad.struct_mul(s, x))
            h = ad.add(gated, ad.row_scale(x, diag))
            return ad.mse(ad.row_sum(h), np.array([[1.0, -1.0]])), theta

        loss, theta = build()
        ad.backward(loss)
        num = _numeric_grad(lambda: build()[0].item(), thetav)
        assert np.allclose(theta.grad, num, rtol=1e-5, atol=1e-8)

    def test_shared_node_accumulates(self):
        # y = x used twice: gradient contributions must sum
        x = ad.parameter(np.array([[3.0]]))
        y = ad.add(x, x)
        ad.backward(y)
        assert x.grad.tolist() == [[2.0]]

    def test_gradients_accumulate_until_cleared(self):
        x = ad.parameter(np.array([[1.0]]))
        loss = ad.mse(x, np.array([0.0]))
        ad.backward(loss)
        first = x.grad.copy()
        loss2 = ad.mse(x, np.array([0.0]))
        ad.backward(loss2)
        assert np.allclose(x.grad, 2 * first)
        x.grad = None
        assert x.grad is None
