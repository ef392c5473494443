import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnuq.mdn import (
    GmmBatch,
    MdnConfig,
    MdnModel,
    TrainSchedule,
    TrainingSet,
    build_mdn,
    _SIGMOID_MARGIN,
    _stable_sigmoid,
    head_transform,
    load_mdn,
    nll_loss,
    predict_map,
    train_mdn,
    transform_batch,
)
from mdnuq.nn import ConfigError, MlpConfig, init_mlp

from oracles import finite_difference, masked_sigmoid


def test_uniform_logits_give_uniform_weights():
    cfg = MdnConfig(3, 1)
    g = head_transform(np.zeros(cfg.raw_dim), cfg)
    assert np.allclose(g.weights, 1.0 / 3.0)


def test_zero_variance_logit_gives_half_sigma_max():
    cfg = MdnConfig(1, 1, sigma_max=5.0)
    g = head_transform(np.zeros(cfg.raw_dim), cfg)
    assert g.variances[0, 0] == pytest.approx(2.5, abs=0)


def test_extreme_logits_stay_finite():
    cfg = MdnConfig(2, 1)
    raw = np.zeros(cfg.raw_dim)
    raw[0] = 1000.0
    g = head_transform(raw, cfg)
    assert np.all(np.isfinite(g.weights))
    assert g.weights[0] == pytest.approx(1.0)
    assert g.weights[1] == pytest.approx(0.0, abs=1e-300)


def test_sigmoid_matches_masked_reference_bit_for_bit():
    special = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324,
               math.inf, -math.inf, math.nan, -math.nan]
    rng = np.random.default_rng(4)
    for x in (np.array(special), rng.normal(0.0, 30.0, size=(128, 10, 2))):
        got = _stable_sigmoid(x)
        assert got.tobytes() == masked_sigmoid(x, _SIGMOID_MARGIN).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 1e6),
)
def test_transform_always_yields_valid_params(k, d, seed, scale):
    cfg = MdnConfig(k, d)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-scale, scale, size=cfg.raw_dim)
    g = head_transform(raw, cfg)
    g.validate(sigma_max=cfg.sigma_max)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-500.0, 500.0))
def test_softmax_shift_invariance(seed, shift):
    cfg = MdnConfig(4, 1)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=cfg.raw_dim)
    shifted = raw.copy()
    shifted[:4] += shift
    a = head_transform(raw, cfg)
    b = head_transform(shifted, cfg)
    assert np.all(np.abs(a.weights - b.weights) < 1e-12)


def test_nll_standard_normal_at_mode():
    cfg = MdnConfig(1, 1, nll_epsilon=1e-300)  # epsilon ~ 0 for the closed form
    params = GmmBatch(
        weights=np.array([[1.0]]),
        means=np.array([[[0.7]]]),
        variances=np.array([[[1.0]]]),
    )
    loss, _ = nll_loss(params, np.array([[0.7]]), cfg)
    assert loss == pytest.approx(0.9189385332046727, rel=1e-12)


def test_nll_bounded_by_log_epsilon():
    cfg = MdnConfig(2, 3)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(16, cfg.raw_dim))
    targets = rng.uniform(-1e6, 1e6, size=(16, 3))  # far outside every mixture
    loss, _ = nll_loss(transform_batch(raw, cfg), targets, cfg)
    bound = -math.log(cfg.nll_epsilon)
    assert loss <= bound + 1e-9
    assert loss == pytest.approx(bound)


def test_nll_permutation_invariant_in_mixture_labels():
    cfg = MdnConfig(4, 2)
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(6, cfg.raw_dim))
    y = rng.normal(size=(6, 2))
    batch = transform_batch(raw, cfg)
    perm = np.array([2, 0, 3, 1])
    permuted = GmmBatch(
        batch.weights[:, perm], batch.means[:, perm], batch.variances[:, perm]
    )
    a, _ = nll_loss(batch, y, cfg)
    b, _ = nll_loss(permuted, y, cfg)
    assert a == pytest.approx(b, rel=1e-12)


def test_nll_gradient_matches_finite_differences():
    cfg = MdnConfig(3, 2)
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(4, cfg.raw_dim))
    y = rng.normal(size=(4, 2))
    _, grad = nll_loss(transform_batch(raw, cfg), y, cfg)

    def loss():
        val, _ = nll_loss(transform_batch(raw, cfg), y, cfg)
        return val

    (fd,) = finite_difference(loss, [raw])
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-4


def test_pipeline_gradient_matches_finite_differences():
    cfg = MdnConfig(3, 2)
    net = init_mlp(MlpConfig(4, [7, 6], cfg.raw_dim, weight_decay=0.02, seed=3))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 2))

    def loss():
        val, _ = nll_loss(transform_batch(net.forward(x), cfg), y, cfg)
        val += 0.5 * net.config.weight_decay * sum(
            float((layer.weights**2).sum()) for layer in net.layers
        )
        return val

    raw = net.forward(x, mode="train")
    _, grad_raw = nll_loss(transform_batch(raw, cfg), y, cfg)
    grads = net.backward(grad_raw)
    fd = finite_difference(loss, net.parameter_arrays())
    flat = [g for pair in grads for g in pair]
    checked = 0
    for analytic, ref in zip(flat, fd):
        rel = np.abs(analytic - ref) / np.maximum(np.abs(ref), 1e-6)
        assert rel.max() < 1e-4
        checked += ref.size
    assert checked >= 100


def test_training_fits_a_line():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(1000, 1))
    data = TrainingSet(x, 2.0 * x + 1.0)
    model = build_mdn(1, [16, 16], 1, 1, seed=0)
    # short schedule: on noiseless data a fully converged mixture drives its
    # variance to the floor and the epsilon-bounded loss plateaus, so stop
    # while the fit (the point of this test) is already excellent
    trace = train_mdn(model, data, TrainSchedule(epochs=60, batch_size=64), seed=0)
    assert trace[-1] < trace[0]
    preds = np.array([predict_map(model, xi)[0][0] for xi in x[:200]])
    mse = float(np.mean((preds - (2.0 * x[:200, 0] + 1.0)) ** 2))
    assert mse < 1e-2


def test_zero_epochs_leaves_network_unchanged():
    model = build_mdn(2, [4], 2, 1, seed=5)
    before = [a.copy() for a in model.net.parameter_arrays()]
    trace = train_mdn(
        model,
        TrainingSet(np.zeros((3, 2)), np.zeros((3, 1))),
        TrainSchedule(epochs=0, batch_size=2),
    )
    assert trace == []
    for a, b in zip(model.net.parameter_arrays(), before):
        assert np.array_equal(a, b)


def test_training_is_deterministic_given_seed():
    def one_run():
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(64, 1))
        data = TrainingSet(x, np.sin(3 * x))
        model = build_mdn(1, [8], 2, 1, dropout_keep_prob=0.8, seed=2)
        return train_mdn(model, data, TrainSchedule(epochs=5, batch_size=16), seed=9)

    assert one_run() == one_run()


def test_predict_map_selects_heaviest_mixture():
    cfg = MdnConfig(3, 1)
    net = init_mlp(MlpConfig(2, [4], cfg.raw_dim, seed=1))
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    # logits realizing weights (0.2, 0.7, 0.1)
    net.layers[-1].biases[:3] = np.log([0.2, 0.7, 0.1])
    net.layers[-1].biases[3:6] = [1.0, 2.0, 3.0]
    model = MdnModel(net, cfg)
    mean, var, idx = predict_map(model, np.zeros(2))
    assert idx == 1
    assert mean[0] == pytest.approx(2.0)

    k1 = build_mdn(2, [4], 1, 1, seed=0)
    assert predict_map(k1, np.zeros(2))[2] == 0


def test_map_tie_breaks_to_lowest_index():
    cfg = MdnConfig(2, 1)
    params = head_transform(np.zeros(cfg.raw_dim), cfg)
    assert np.argmax(params.weights) == 0  # equal weights -> index 0


def test_raw_width_mismatch_rejected():
    cfg = MdnConfig(2, 2)
    with pytest.raises(ConfigError):
        MdnModel(init_mlp(MlpConfig(2, [4], cfg.raw_dim + 1, seed=0)), cfg)


def test_model_round_trip_is_bit_exact(tmp_path):
    model = build_mdn(3, [8, 8], 4, 2, dropout_keep_prob=0.9, weight_decay=1e-5, seed=6)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = load_mdn(path)
    assert loaded.cfg == model.cfg
    assert loaded.net.config == model.net.config
    for a, b in zip(model.net.parameter_arrays(), loaded.net.parameter_arrays()):
        assert np.array_equal(a, b)
    x = np.array([0.1, -0.2, 0.3])
    assert np.array_equal(model.net.forward(x), loaded.net.forward(x))


def test_training_set_validation():
    with pytest.raises(ConfigError):
        TrainingSet(np.array([[1.0, np.nan]]), np.array([[0.0]]))
    with pytest.raises(ConfigError):
        TrainingSet(np.zeros((2, 2)), np.zeros((3, 1)))
