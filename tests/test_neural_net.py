import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantrl.neural_net import (
    GradientSet,
    Mlp,
    _ParameterBlock,
    _forward,
    _product,
    backward,
    clone_parameters,
    forward,
    init_mlp,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    sgd_step,
)


def finite_difference_grads(net, inputs, targets, mask, step=1e-5):
    """Central-difference oracle for every parameter."""
    def loss_now():
        return mse_loss(forward(net, inputs), targets, mask)

    grads = GradientSet(
        [np.zeros_like(w) for w in net.weights],
        [np.zeros_like(b) for b in net.biases],
    )
    for arrays, out in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for param, grad in zip(arrays, out):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = param[idx]
                param[idx] = original + step
                up = loss_now()
                param[idx] = original - step
                down = loss_now()
                param[idx] = original
                grad[idx] = (up - down) / (2.0 * step)
    return grads


def gradient_errors(analytic, numeric):
    errors = []
    for a_arrs, n_arrs in (
        (analytic.weights, numeric.weights),
        (analytic.biases, numeric.biases),
    ):
        for a, n in zip(a_arrs, n_arrs):
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            errors.append(np.abs(a - n) / denom)
    return max(float(e.max()) for e in errors)


class TestInit:
    def test_shapes(self):
        net = init_mlp((4, 8, 3), seed=0)
        assert [w.shape for w in net.weights] == [(4, 8), (8, 3)]
        assert [b.shape for b in net.biases] == [(8,), (3,)]
        assert net.layer_sizes == (4, 8, 3)

    def test_same_seed_identical(self):
        a = init_mlp((4, 8, 3), seed=5)
        b = init_mlp((4, 8, 3), seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_biases_zero_and_weights_bounded(self):
        net = init_mlp((6, 4, 2), seed=1)
        assert all(np.all(b == 0.0) for b in net.biases)
        for w, (fan_in, fan_out) in zip(net.weights, ((6, 4), (4, 2))):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_too_few_layers(self):
        with pytest.raises(ValueError, match="at least"):
            init_mlp((4,))

    def test_invalid_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            init_mlp((4, 0, 3))

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_as_a_per_layer_loop(self, sizes, seed):
        # the reference draws each layer's weights in turn into its own array
        rng = np.random.default_rng(seed)
        weights = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        net = init_mlp(sizes, seed=seed)
        for got, want in zip(net.weights, weights, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, fan_out in zip(net.biases, sizes[1:], strict=True):
            assert got.tobytes() == np.zeros(fan_out).tobytes()


class TestForward:
    def test_zero_parameters_zero_output(self):
        net = init_mlp((3, 5, 2), seed=0)
        for w in net.weights:
            w[:] = 0.0
        assert np.all(forward(net, np.ones(3)) == 0.0)

    def test_identity_single_layer(self):
        net = Mlp((3, 3), [np.eye(3)], [np.zeros(3)])
        x = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(forward(net, x), x)

    def test_hand_computed_1_2_1(self):
        # x=0.75: z = [0.75 + 0.5, -1.5 + 0.25] = [1.25, -1.25]
        # relu -> [1.25, 0]; out = 1.25*2 + 0*(-1) + 0.125 = 2.625
        net = Mlp(
            (1, 2, 1),
            [np.array([[1.0, -2.0]]), np.array([[2.0], [-1.0]])],
            [np.array([0.5, 0.25]), np.array([0.125])],
        )
        out = forward(net, np.array([0.75]))
        assert out[0] == pytest.approx(2.625, abs=1e-12)

    def test_batch_matches_single(self):
        # batched and row-wise matmuls may differ by summation order only
        net = init_mlp((4, 6, 3), seed=2)
        batch = np.random.default_rng(0).normal(size=(5, 4))
        stacked = forward(net, batch)
        for i in range(5):
            assert np.allclose(stacked[i], forward(net, batch[i]), rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        net = init_mlp((4, 3), seed=0)
        with pytest.raises(ValueError, match="first layer"):
            forward(net, np.ones(5))


# id -> (call, message) of each refusal of a mask, a target or a learning rate
REFUSALS = {
    "mask-shape": (lambda: mse_loss(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 3), dtype=bool)),
                   "mask shape (1, 3) does not match (1, 2)"),
    "target-shape": (lambda: backward(init_mlp((2, 3), seed=0), np.ones((1, 2)), np.ones((1, 2))),
                     "target shape does not match batch and output size"),
    "negative-learning-rate": (
        lambda: sgd_step(init_mlp((2, 2), seed=0), GradientSet([np.zeros((2, 2))], [np.zeros(2)]), -0.1),
        "learning rate must be non-negative"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_a_value_error_with_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


class TestMseLoss:
    def test_identical_is_zero(self):
        assert mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_single_element(self):
        assert mse_loss(np.array([2.0]), np.array([0.0])) == 4.0

    def test_mask_restricts_selection(self):
        predicted = np.array([[2.0, 100.0]])
        target = np.array([[0.0, 0.0]])
        mask = np.array([[True, False]])
        assert mse_loss(predicted, target, mask) == 4.0

    def test_empty_selection(self):
        with pytest.raises(ValueError, match="empty selection"):
            mse_loss(np.array([1.0]), np.array([1.0]), np.array([False]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse_loss(np.ones(2), np.ones(3))


class TestBackward:
    def test_zero_gradient_at_target(self):
        net = init_mlp((3, 4, 2), seed=1)
        x = np.random.default_rng(1).normal(size=(4, 3))
        target = forward(net, x)
        loss, grads = backward(net, x, target)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = init_mlp((4, 8, 3), seed=12)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))
        mask = rng.random((6, 3)) < 0.5
        mask[0, 0] = True  # never empty
        loss, analytic = backward(net, x, target, mask)
        numeric = finite_difference_grads(net, x, target, mask)
        assert gradient_errors(analytic, numeric) < 1e-4
        assert loss == pytest.approx(mse_loss(forward(net, x), target, mask), rel=1e-12)

    def test_gradient_linear_in_residual(self):
        # doubling the residual doubles every gradient entry
        net = init_mlp((3, 5, 2), seed=3)
        x = np.random.default_rng(3).normal(size=(4, 3))
        base = forward(net, x)
        residual = np.random.default_rng(4).normal(size=base.shape)
        _, g1 = backward(net, x, base - residual)
        _, g2 = backward(net, x, base - 2.0 * residual)
        for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
            assert np.allclose(2.0 * a, b, rtol=1e-12, atol=1e-14)

    def test_width_mismatch(self):
        net = init_mlp((4, 3), seed=0)
        with pytest.raises(ValueError, match="input width 5 does not match first layer size 4"):
            backward(net, np.ones((2, 5)), np.zeros((2, 3)))


class TestParameterBlock:
    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4),
        batch=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_forward_is_forward_of_each_net(self, sizes, batch, seed):
        # sizes of length 2 are networks with no hidden layer
        rng = np.random.default_rng(seed)
        nets = [init_mlp(sizes, seed=rng) for _ in range(2)]
        for net in nets:
            for b in net.biases:
                b[:] = rng.normal(size=b.shape)
        block = _ParameterBlock(nets, batch)
        x = rng.normal(size=(2, batch, sizes[0]))
        outputs = _forward(block.stacked, x)
        for row, net in enumerate(nets):
            want = forward(net, x[row])
            assert outputs[row].shape == want.shape
            assert outputs[row].tobytes() == want.tobytes()
            assert forward(block.nets[row], x[row]).tobytes() == want.tobytes()

    def test_views_share_the_block(self):
        nets = [init_mlp((3, 4, 2), seed=s) for s in (0, 1)]
        block = _ParameterBlock(nets, 1)
        block.params[1] = block.params[0]
        for got, want in zip((*block.nets[1].weights, *block.nets[1].biases),
                             (*nets[0].weights, *nets[0].biases)):
            assert np.array_equal(got, want)
        block.params[0] -= 1.0
        assert np.array_equal(block.nets[0].weights[1], nets[0].weights[1] - 1.0)
        assert np.array_equal(block.stacked.biases[0][0, 0], nets[0].biases[0] - 1.0)
        assert nets[0].biases[0].tolist() == [0.0] * 4  # the source nets are copies


def extreme_array(rng, shape, exponents, special):
    """Normal draws times 10**e, e drawn per entry from `exponents` (inclusive), with a
    share `special` of the entries replaced by +-0.0, +-inf or NaN."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(*exponents, size=shape, endpoint=True)
    hit = rng.random(shape) < special
    values[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(hit.sum()))
    return values


class TestBlasProducts:
    # The 2-D and vector products a block's update and a one-vector forward run,
    # on the layouts they run on, against np.matmul: independent of the step and
    # of backward, which both run them. np.dot is the product wherever a sum has
    # two or more terms; with one term np.dot may keep a -0.0 product or skip
    # 0 * inf, which matmul does not, so the product there is matmul.
    @settings(max_examples=400, deadline=None)
    @given(
        batch=st.integers(1, 64),
        sizes=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)),
        low=st.integers(-300, 300),
        spread=st.sampled_from([0, 2, 20, 600]),
        special=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_are_matmul_bit_for_bit(self, batch, sizes, low, spread, special, seed):
        rng = np.random.default_rng(seed)
        exponents = (low, min(300, low + spread))
        block = _ParameterBlock([init_mlp(sizes, seed=rng)], batch)
        net = block.nets[0]
        for array in (*net.weights, block.online[0], block.deltas[1]):
            array[...] = extreme_array(rng, array.shape, exponents, special)
        x = extreme_array(rng, sizes[0], exponents, special)
        hidden, delta = block.online[0], block.deltas[1]
        with np.errstate(all="ignore"):
            runs = [
                (batch, block.gradient_product(block.hidden_t[0], delta, out=block.grads.weights[1]),
                 np.matmul(hidden.T, delta)),
                (sizes[2], block.delta_products[1](delta, block.weights_t[1], out=block.deltas[0]),
                 np.matmul(delta, net.weights[1].T)),
                (sizes[0], _product(sizes[0])(x, net.weights[0]), np.matmul(x, net.weights[0])),
                (sizes[0], forward(net, x), forward(net, x[None])[0]),
            ]
        assert (block.gradient_product is np.dot) == (batch > 1)
        assert [p is np.dot for p in block.delta_products] == [n > 1 for n in sizes[1:]]
        for terms, got, want in runs:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), f"{terms}-term sums differ"

    def test_views_np_dot_would_copy_keep_matmul(self):
        # np.dot copies a reversed vector and a batch of strided rows or a
        # broadcast, where matmul reads them in place: forward and backward
        # give them matmul's bytes
        rng = np.random.default_rng(3)
        net = init_mlp((8, 3), seed=1)
        w, b = net.weights[0], net.biases[0]
        b[:] = rng.normal(size=3)
        wide = rng.normal(size=(40, 16))
        for x in (wide[::2, ::2], wide[::2, :8], np.broadcast_to(wide[0, :8], (20, 8))):
            targets = rng.normal(size=(len(x), 3))
            delta = 2.0 * (np.matmul(x, w) + b - targets) / targets.size
            assert backward(net, x, targets)[1].weights[0].tobytes() == np.matmul(x.T, delta).tobytes()
        wide_net = init_mlp((8, 32), seed=2)
        vector = wide[0, 7::-1]
        want = np.matmul(vector[None], wide_net.weights[0]) + wide_net.biases[0]
        assert forward(wide_net, vector).tobytes() == want[0].tobytes()


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        net = init_mlp((3, 4, 2), seed=0)
        before = clone_parameters(net)
        _, grads = backward(net, np.ones((1, 3)), np.zeros((1, 2)))
        sgd_step(net, grads, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, before.weights))

    def test_single_weight_update(self):
        net = Mlp((1, 1), [np.array([[1.0]])], [np.array([0.0])])
        grads = GradientSet([np.array([[2.0]])], [np.array([0.0])])
        sgd_step(net, grads, 0.1)
        assert net.weights[0][0, 0] == pytest.approx(0.8, rel=1e-12)

    def test_converges_on_quadratic(self):
        # minimize (f(1) - 3)^2 for a 1-1 affine net; unique minimum in
        # function space is output 3, reached well within 10k iterations
        net = Mlp((1, 1), [np.array([[10.0]])], [np.array([0.0])])
        x = np.array([[1.0]])
        target = np.array([[3.0]])
        for _ in range(10_000):
            _, grads = backward(net, x, target)
            sgd_step(net, grads, 0.01)
            if abs(forward(net, x[0])[0] - 3.0) < 1e-6:
                break
        assert abs(forward(net, x[0])[0] - 3.0) < 1e-6

    def test_shape_mismatch_rejected(self):
        net = init_mlp((2, 2), seed=0)
        for bad in (
            GradientSet([np.zeros((3, 2))], [np.zeros(2)]),
            GradientSet([np.zeros((2, 2))], [np.zeros(3)]),
            GradientSet([np.zeros((2, 2))] * 2, [np.zeros(2)]),
            GradientSet([np.zeros((2, 2))], []),
        ):
            with pytest.raises(ValueError, match="shape"):
                sgd_step(net, bad, 0.1)


class TestClone:
    def test_clone_is_independent(self):
        net = init_mlp((3, 4, 2), seed=8)
        twin = clone_parameters(net)
        _, grads = backward(net, np.ones((1, 3)), np.zeros((1, 2)))
        sgd_step(net, grads, 0.5)
        assert not np.array_equal(net.weights[0], twin.weights[0])

    def test_clone_forward_identical(self):
        net = init_mlp((3, 4, 2), seed=8)
        twin = clone_parameters(net)
        x = np.random.default_rng(0).normal(size=(7, 3))
        assert np.array_equal(forward(net, x), forward(twin, x))

    def test_clone_of_list_built_net(self):
        net = Mlp((1, 2, 1), [np.array([[1.0, -2.0]]), np.array([[2.0], [-1.0]])],
                  [np.array([0.5, 0.25]), np.array([0.125])])
        twin = clone_parameters(net)
        for got, want in zip(twin.weights + twin.biases, net.weights + net.biases):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        twin.biases[1][0] = 9.0
        assert net.biases[1][0] == 0.125

    def test_clone_of_clone(self):
        net = init_mlp((3, 4, 2), seed=8)
        double = clone_parameters(clone_parameters(net))
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, double.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, double.biases))


class TestStructuralProperties:
    def test_last_layer_homogeneity(self):
        # with a zero output bias, scaling last-layer weights scales outputs
        net = init_mlp((4, 6, 3), seed=9)
        x = np.random.default_rng(9).normal(size=4)
        base = forward(net, x)
        net.weights[-1] *= 2.5
        assert np.allclose(forward(net, x), 2.5 * base, rtol=1e-12)

    def test_relu_kills_negative_layer(self):
        net = init_mlp((3, 5, 2), seed=4)
        net.biases[0][:] = -1e6  # force every hidden pre-activation negative
        a = forward(net, np.array([1.0, 2.0, 3.0]))
        b = forward(net, np.array([-9.0, 4.0, 0.5]))
        assert np.array_equal(a, b)  # input cannot reach the output


# Parameter values from subnormal to 1e300 in magnitude, both zeros included.
PARAMETERS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]) | st.floats(
    -1e300, 1e300, allow_subnormal=True
)


@st.composite
def networks(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    def block(*shape):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(PARAMETERS, min_size=count, max_size=count))).reshape(shape)
    pairs = list(zip(sizes, sizes[1:]))
    return Mlp(sizes, [block(i, o) for i, o in pairs], [block(o) for _, o in pairs])


class TestCheckpoint:
    @settings(max_examples=100, deadline=None)
    @given(networks())
    def test_round_trip_bit_exact_over_magnitudes(self, tmp_path_factory, net):
        path = tmp_path_factory.getbasetemp() / "property_net.txt"
        save_checkpoint(net, path)
        again = load_checkpoint(path)
        assert again.layer_sizes == net.layer_sizes
        for got, want in zip(again.weights + again.biases, net.weights + net.biases):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_round_trip_bit_exact(self, tmp_path):
        net = init_mlp((5, 7, 3), seed=123)
        sgd_step(net, backward(net, np.ones((2, 5)), np.zeros((2, 3)))[1], 0.01)
        path = tmp_path / "net.txt"
        save_checkpoint(net, path)
        again = load_checkpoint(path)
        assert again.layer_sizes == net.layer_sizes
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, again.biases))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-checkpoint\n1 2\n0.0\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        net = init_mlp((2, 2), seed=0)
        path = tmp_path / "net.txt"
        save_checkpoint(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="expected"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        net = init_mlp((2, 2), seed=0)
        path = tmp_path / "net.txt"
        save_checkpoint(net, path)
        lines = path.read_text().splitlines()
        lines[3] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)
