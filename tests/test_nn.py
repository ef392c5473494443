import numpy as np
import pytest

from mdnuq.nn import (
    ConfigError,
    DenseLayer,
    MlpConfig,
    MlpNetwork,
    Optimizer,
    StateError,
    init_mlp,
    mse_loss,
    train_network,
)

from oracles import finite_difference, unblocked_backward, unblocked_forward


def small_net(seed=0, wd=0.0, keep=1.0):
    return init_mlp(
        MlpConfig(3, [6, 5], 4, dropout_keep_prob=keep, weight_decay=wd, seed=seed)
    )


def test_parameter_count_matches_dimension_arithmetic():
    net = init_mlp(MlpConfig(2, [256, 256], 60, seed=7))
    expected = (2 * 256 + 256) + (256 * 256 + 256) + (256 * 60 + 60)
    assert sum(a.size for a in net.parameter_arrays()) == expected


def test_same_config_gives_bit_identical_networks():
    a = init_mlp(MlpConfig(4, [8, 8], 3, seed=11))
    b = init_mlp(MlpConfig(4, [8, 8], 3, seed=11))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


def test_empty_hidden_dims_rejected():
    with pytest.raises(ConfigError):
        init_mlp(MlpConfig(2, [], 1))


def test_zero_weight_network_propagates_biases_through_tanh():
    net = small_net()
    for layer in net.layers:
        layer.weights[:] = 0.0
    net.layers[0].biases[:] = 0.3
    net.layers[1].biases[:] = -0.2
    net.layers[2].biases[:] = 1.5
    out = net.forward(np.zeros(3))
    # zero weights: every layer ignores its input, so output is just the head bias
    assert np.allclose(out, 1.5)
    out2 = net.forward(np.array([5.0, -2.0, 0.1]))
    assert np.array_equal(out, out2)


def test_keep_prob_one_train_equals_eval():
    net = small_net(seed=2)
    x = np.array([0.5, -1.0, 2.0])
    out_eval = net.forward(x)
    out_train = net.forward(x, mode="train", rng=np.random.default_rng(0))
    assert np.array_equal(out_eval, out_train)


def test_stochastic_eval_is_deterministic_given_seed():
    net = small_net(seed=3, keep=0.8)
    x = np.array([1.0, 0.0, -1.0])
    a = net.forward(x, rng=np.random.default_rng(42), stochastic_eval=True)
    b = net.forward(x, rng=np.random.default_rng(42), stochastic_eval=True)
    assert np.array_equal(a, b)
    # and differs from the deterministic pass with overwhelming probability
    assert not np.array_equal(a, net.forward(x))


def test_eval_with_dropout_configured_is_pure():
    net = small_net(seed=4, keep=0.5)
    x = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(net.forward(x), net.forward(x))


def test_dense_layer_linear_gradient():
    # loss = output[0]: d/dw[0, j] is exactly the input
    layer = DenseLayer(np.zeros((2, 3)), np.zeros(2))
    cfg = MlpConfig(3, [1], 2)  # container config; layer used directly
    net = MlpNetwork(cfg, [layer])
    x = np.array([[1.0, -2.0, 3.0]])
    net.forward(x, mode="train")
    grads = net.backward(np.array([[1.0, 0.0]]))
    assert np.array_equal(grads[0][0][0], x[0])
    assert np.array_equal(grads[0][0][1], np.zeros(3))
    assert np.array_equal(grads[0][1], np.array([1.0, 0.0]))


def test_weight_decay_shifts_gradients_by_lambda_w():
    x = np.array([[0.4, -0.2, 0.9]])
    g_out = np.array([[0.3, -0.5, 0.2, 0.1]])
    net0 = small_net(seed=5, wd=0.0)
    net1 = small_net(seed=5, wd=0.25)
    net0.forward(x, mode="train")
    net1.forward(x, mode="train")
    g0 = net0.backward(g_out)
    g1 = net1.backward(g_out)
    for (dw0, db0), (dw1, db1), layer in zip(g0, g1, net0.layers):
        assert np.allclose(dw1 - dw0, 0.25 * layer.weights)
        assert np.array_equal(db0, db1)


def test_backward_without_forward_raises():
    net = small_net()
    with pytest.raises(StateError):
        net.backward(np.ones(4))
    net.forward(np.zeros(3))  # eval mode does not cache
    with pytest.raises(StateError):
        net.backward(np.ones(4))


def test_gradients_match_finite_differences():
    net = init_mlp(MlpConfig(4, [7, 6, 5], 3, weight_decay=0.01, seed=9))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    u = rng.normal(size=(5, 3))  # random linear functional as the loss

    def loss():
        out = net.forward(x)
        val = float((out * u).sum())
        val += 0.5 * net.config.weight_decay * sum(
            float((layer.weights**2).sum()) for layer in net.layers
        )
        return val

    net.forward(x, mode="train")
    grads = net.backward(u)
    arrays = net.parameter_arrays()
    fd = finite_difference(loss, arrays)
    checked = 0
    for analytic_pair, ref in zip([g for pair in grads for g in pair], fd):
        rel = np.abs(analytic_pair - ref) / np.maximum(np.abs(ref), 1e-6)
        assert rel.max() < 1e-4
        checked += ref.size
    assert checked >= 100


def test_adam_first_step_matches_hand_evaluation():
    net = small_net(seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    opt = Optimizer(learning_rate=1e-3)
    grads = [(np.ones_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
    opt.apply(net, grads)
    assert opt.step_count == 1
    assert net.layers[0].weights[0, 0] == pytest.approx(-0.0009999999900000003, rel=1e-12)


def test_parameters_stay_finite_over_many_updates():
    net = init_mlp(MlpConfig(3, [8, 8], 2, seed=13))
    opt = Optimizer(learning_rate=1e-2)
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        x = rng.uniform(-1, 1, size=(4, 3))
        y = rng.uniform(-1, 1, size=(4, 2))
        raw = net.forward(x, mode="train", rng=rng)
        _, grad = mse_loss(raw, y)
        opt.apply(net, net.backward(grad))
    assert all(np.all(np.isfinite(a)) for a in net.parameter_arrays())


def test_train_network_zero_epochs_is_identity():
    net = small_net(seed=20)
    before = [a.copy() for a in net.parameter_arrays()]
    trace = train_network(
        net,
        np.zeros((4, 3)),
        np.zeros((4, 4)),
        mse_loss,
        epochs=0,
        batch_size=2,
        optimizer=Optimizer(),
    )
    assert trace == []
    for a, b in zip(net.parameter_arrays(), before):
        assert np.array_equal(a, b)


def test_dimension_mismatch_rejected():
    net = small_net()
    with pytest.raises(ConfigError):
        net.forward(np.zeros(5))


def test_three_dimensional_input_rejected_with_its_shape():
    net = init_mlp(MlpConfig(2, [4], 3, seed=0))
    with pytest.raises(ConfigError, match=r"\(3, 2, 2\)"):
        net.forward(np.zeros((3, 2, 2)))


# --- row blocks: large eval batches against the whole-batch layer loop -------

DRIVING_SHAPE = (7, 50)
SCENARIO_SHAPE = (2, 30)


def wide_net(shape, **kwargs):
    """The 256-256 topology of the scenario and driving models, for (in, out)."""
    return init_mlp(MlpConfig(shape[0], [256, 256], shape[1], **kwargs))


@pytest.mark.parametrize("shape", [DRIVING_SHAPE, SCENARIO_SHAPE])
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1600, 4097])
def test_eval_forward_equals_unblocked_loop(shape, n):
    net = wide_net(shape, seed=n)
    x = np.random.default_rng(n).uniform(-3.0, 3.0, size=(n, shape[0]))
    expected, _ = unblocked_forward(net, x)
    assert np.array_equal(net.forward(x), expected)


def test_stochastic_eval_keeps_the_dropout_draw_order():
    net = wide_net(SCENARIO_SHAPE, dropout_keep_prob=0.8, seed=1)
    x = np.random.default_rng(2).normal(size=(1024, 2))
    got = net.forward(x, rng=np.random.default_rng(3), stochastic_eval=True)
    expected, _ = unblocked_forward(net, x, np.random.default_rng(3), stochastic=True)
    assert np.array_equal(got, expected)


def test_train_forward_and_backward_equal_unblocked_loop():
    net = wide_net(DRIVING_SHAPE, dropout_keep_prob=0.8, weight_decay=1e-3, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1024, 7))
    grad_out = rng.normal(size=(1024, 50)) / 1024
    out = net.forward(x, mode="train", rng=np.random.default_rng(6))
    expected, cache = unblocked_forward(net, x, np.random.default_rng(6), stochastic=True)
    assert np.array_equal(out, expected)
    for (dw, db), (rw, rb) in zip(net.backward(grad_out),
                                  unblocked_backward(net, cache, grad_out)):
        assert np.array_equal(dw, rw)
        assert np.array_equal(db, rb)


def test_large_eval_forward_memory_scales_with_the_block():
    import tracemalloc

    net = wide_net(DRIVING_SHAPE, seed=7)
    x = np.random.default_rng(8).normal(size=(20_000, 7))
    tracemalloc.start()
    try:
        out = net.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-batch pass would hold two (20000, 256) activations, ~82 MB
    assert peak < out.nbytes + 4 * 2**20


def test_plain_network_file_round_trip_is_bit_exact(tmp_path):
    from mdnuq.modelio import load_model, save_model

    net = small_net(seed=17, wd=3e-4, keep=0.9)
    path = tmp_path / "net.bin"
    save_model(path, net)
    loaded, mdn_cfg = load_model(path)
    assert mdn_cfg is None
    assert loaded.config == net.config
    for a, b in zip(net.parameter_arrays(), loaded.parameter_arrays()):
        assert np.array_equal(a, b)
    # and the file is stable: saving the loaded network reproduces the bytes
    path2 = tmp_path / "net2.bin"
    save_model(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_corrupt_model_file_rejected(tmp_path):
    from mdnuq.modelio import load_model

    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a model")
    with pytest.raises(ConfigError):
        load_model(path)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda b: b[:-100], "truncated"),  # cut inside the last layer
        (lambda b: b[:12], "truncated"),  # cut inside the header
        (lambda b: b + bytes(16), "unexpected bytes after the last layer"),
        # same-length edits, so the header's recorded length still holds
        (lambda b: b.replace(b'"hidden_dims"', b'"hidden_dimz"'), "header \\(KeyError: 'hidden_dims'\\)"),
        (lambda b: b.replace(b", ", b"; ", 1), "header \\(JSONDecodeError"),
    ],
    ids=["cut-in-last-layer", "cut-in-header", "trailing-bytes", "renamed-key", "broken-json"],
)
def test_damaged_model_file_is_refused_naming_its_path(tmp_path, damage, message):
    from mdnuq.modelio import load_model, save_model

    path = tmp_path / "net.bin"
    save_model(path, small_net(seed=3))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ConfigError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)
