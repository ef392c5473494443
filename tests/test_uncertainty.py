import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnuq.mdn import GmmBatch, GmmParams, build_mdn
from mdnuq.nn import ConfigError
from mdnuq.uncertainty import mc_dropout_variance, report, report_from_gmm

from oracles import moments_by_enumeration, per_sample_mc_dropout, random_gmm, sample_gmm


def gmm(w, means, variances):
    return GmmParams(
        np.asarray(w, dtype=float),
        np.atleast_2d(np.asarray(means, dtype=float)).reshape(len(w), -1),
        np.atleast_2d(np.asarray(variances, dtype=float)).reshape(len(w), -1),
    )


def test_total_mean_single_mixture():
    g = gmm([1.0], [[2.5, -1.0]], [[0.3, 0.4]])
    assert np.array_equal(report_from_gmm(g).total_mean, np.array([2.5, -1.0]))


def test_total_mean_symmetric_pair_cancels():
    g = gmm([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    assert report_from_gmm(g).total_mean[0] == pytest.approx(0.0, abs=0)


def test_total_mean_against_sampling():
    rng = np.random.default_rng(0)
    g = random_gmm(rng, max_d=1)
    samples = sample_gmm(g, 1_000_000, rng)
    se = samples.std(axis=0) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - report_from_gmm(g).total_mean) < 3 * se)


def test_total_mean_against_sampling_multidim():
    # joint bound over up to 8 dimensions, so slightly wider than per-dim 3 SE
    rng = np.random.default_rng(1)
    g = random_gmm(rng)
    samples = sample_gmm(g, 1_000_000, rng)
    se = samples.std(axis=0) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - report_from_gmm(g).total_mean) < 4 * se)


def test_explained_variance_examples():
    assert report_from_gmm(gmm([1.0], [[3.0]], [[0.5]])).explained[0] == 0.0
    g = gmm([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    assert report_from_gmm(g).explained[0] == pytest.approx(1.0, abs=0)


def test_unexplained_variance_examples():
    assert report_from_gmm(gmm([1.0], [[0.0]], [[2.5]])).unexplained[0] == 2.5
    g = gmm([0.5, 0.5], [[0.0], [0.0]], [[1.0], [3.0]])
    assert report_from_gmm(g).unexplained[0] == pytest.approx(2.0)


def test_total_variance_examples():
    g = gmm([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    assert report_from_gmm(g).total_variance[0] == pytest.approx(2.0)
    g1 = gmm([1.0], [[0.7]], [[1.3]])
    assert report_from_gmm(g1).total_variance[0] == pytest.approx(1.3, abs=0)
    degenerate = gmm([1.0, 0.0, 0.0], [[1.0], [9.0], [-9.0]], [[0.5], [4.0], [4.0]])
    assert report_from_gmm(degenerate).total_variance[0] == pytest.approx(0.5, abs=0)


def test_total_variance_against_sampling():
    rng = np.random.default_rng(1)
    g = gmm([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    samples = sample_gmm(g, 1_000_000, rng)
    assert samples.var(axis=0)[0] == pytest.approx(2.0, abs=0.01)


def test_moments_match_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_gmm(rng, max_k=5)
        mean_ref, expl_ref, unexpl_ref = moments_by_enumeration(g)
        rep = report_from_gmm(g)
        assert np.allclose(rep.total_mean, mean_ref, rtol=1e-10, atol=1e-12)
        assert np.allclose(rep.explained, expl_ref, rtol=1e-8, atol=1e-10)
        assert np.allclose(rep.unexplained, unexpl_ref, rtol=1e-12)


def test_law_of_total_variance_small_batch():
    rng = np.random.default_rng(3)
    for _ in range(200):
        rep = report_from_gmm(random_gmm(rng))
        assert np.allclose(rep.total_variance, rep.explained + rep.unexplained, rtol=1e-10)
        assert np.all(rep.explained >= 0)
        assert np.all(rep.unexplained > 0)


def test_explained_zero_iff_active_means_equal():
    same = gmm([0.3, 0.7], [[2.0, -1.0], [2.0, -1.0]], np.ones((2, 2)))
    assert np.all(report_from_gmm(same).explained == 0.0)
    zero_weight = gmm([1.0, 0.0], [[2.0], [99.0]], [[1.0], [1.0]])
    assert np.all(report_from_gmm(zero_weight).explained == 0.0)
    spread = gmm([0.5, 0.5], [[1.0], [1.1]], [[1.0], [1.0]])
    assert report_from_gmm(spread).explained[0] > 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-100.0, 100.0), st.integers(0, 2**32 - 1))
def test_explained_scales_quadratically(c, seed):
    rng = np.random.default_rng(seed)
    g = random_gmm(rng, max_k=6, max_d=1)
    scaled = GmmParams(g.weights, c * g.means, g.variances)
    got, want = report_from_gmm(scaled).explained, c * c * report_from_gmm(g).explained
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_report_fields_and_purity():
    model = build_mdn(2, [8], 3, 2, seed=4)
    x = np.array([0.2, -0.4])
    a = report(model, x)
    b = report(model, x)
    assert np.array_equal(a.total_variance, b.total_variance)
    assert np.array_equal(a.total_mean, b.total_mean)
    assert a.map_index == b.map_index
    assert np.allclose(a.total_variance, a.explained + a.unexplained, rtol=1e-10)


def test_report_k1_explained_is_exactly_zero():
    model = build_mdn(2, [8], 1, 2, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        rep = report(model, rng.normal(size=2))
        assert rep.explained_sum == 0.0
        assert np.all(rep.explained == 0.0)


def test_mc_dropout_requires_two_samples():
    model = build_mdn(2, [8], 2, 1, dropout_keep_prob=0.8, seed=6)
    with pytest.raises(ValueError):
        mc_dropout_variance(model, np.zeros(2), 1, np.random.default_rng(0))


def test_mc_dropout_deterministic_given_seed():
    model = build_mdn(2, [8], 2, 1, dropout_keep_prob=0.8, seed=7)
    x = np.array([0.5, 0.5])
    a = mc_dropout_variance(model, x, 10, np.random.default_rng(3))
    b = mc_dropout_variance(model, x, 10, np.random.default_rng(3))
    assert np.array_equal(a.variance, b.variance)


def test_mc_dropout_keep_prob_one_reduces_to_mean_variance():
    # identity masks: the mean-variance term cancels, leaving mean of sigma
    model = build_mdn(2, [8], 2, 1, dropout_keep_prob=1.0, seed=8)
    x = np.array([0.1, 0.9])
    rep = mc_dropout_variance(model, x, 8, np.random.default_rng(0))
    g = model.gmm(x)
    j = int(np.argmax(g.weights))
    assert np.allclose(rep.variance, g.variances[j], rtol=1e-12)
    assert np.all(rep.sample_means == rep.sample_means[0])


def test_mc_dropout_variance_is_nonnegative():
    model = build_mdn(2, [16, 16], 3, 2, dropout_keep_prob=0.7, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rep = mc_dropout_variance(model, rng.normal(size=2), 5, rng)
        assert np.all(rep.variance >= 0.0)


@pytest.mark.parametrize("keep", [0.7, 0.8, 1.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 10])
def test_mc_dropout_matches_per_sample_oracle_bit_for_bit(k, d, keep):
    model = build_mdn(3, [16, 16], k, d, dropout_keep_prob=keep, seed=100 * k + 10 * d)
    points = np.random.default_rng(k + d).normal(0.0, 3.0, size=(5, 3))
    for i, x in enumerate(points):
        rep = mc_dropout_variance(model, x, 12, np.random.default_rng(i))
        variance, means, variances = per_sample_mc_dropout(model, x, 12, np.random.default_rng(i))
        assert np.array_equal(rep.variance, variance)
        assert np.array_equal(rep.sample_means, means)
        assert np.array_equal(rep.sample_variances, variances)


def test_mc_dropout_tied_weights_pick_index_zero_like_the_oracle():
    # a zeroed head layer gives equal logits, so every sample ties on all K
    model = build_mdn(2, [8], 4, 2, dropout_keep_prob=0.8, seed=14)
    head = model.net.layers[-1]
    head.weights[:] = 0.0
    head.biases[:] = 0.0
    x = np.array([0.3, -0.2])
    rep = mc_dropout_variance(model, x, 6, np.random.default_rng(2))
    variance, means, variances = per_sample_mc_dropout(model, x, 6, np.random.default_rng(2))
    assert np.array_equal(rep.variance, variance)
    assert np.array_equal(rep.sample_means, means)
    assert np.array_equal(rep.sample_variances, variances)
    assert np.all(rep.sample_means == model.gmm(x).means[0])


def test_mc_dropout_runs_one_single_row_forward_per_sample():
    # the T passes stay sequential: criterion 8 times them against one report
    model = build_mdn(2, [8], 3, 1, dropout_keep_prob=0.8, seed=15)
    forward = model.net.forward
    rows = []

    def counting_forward(x, *args, **kwargs):
        rows.append(np.atleast_2d(x).shape[0])
        return forward(x, *args, **kwargs)

    model.net.forward = counting_forward
    mc_dropout_variance(model, np.zeros(2), 9, np.random.default_rng(0))
    assert rows == [1] * 9


def test_mc_dropout_takes_a_one_row_input_like_a_vector():
    model = build_mdn(2, [8], 3, 1, dropout_keep_prob=0.8, seed=16)
    x = np.full(2, 0.4)
    a = mc_dropout_variance(model, x.reshape(1, 2), 5, np.random.default_rng(1))
    b = mc_dropout_variance(model, x, 5, np.random.default_rng(1))
    assert np.array_equal(a.variance, b.variance)


def test_mc_dropout_rejects_a_batch_naming_its_shape():
    model = build_mdn(2, [8], 3, 2, dropout_keep_prob=0.8, seed=17)
    with pytest.raises(ValueError, match=r"\(3, 2\)"):
        mc_dropout_variance(model, np.zeros((3, 2)), 4, np.random.default_rng(0))


def test_report_from_gmm_map_index():
    g = gmm([0.2, 0.7, 0.1], [[0.0], [1.0], [2.0]], np.ones((3, 1)))
    assert report_from_gmm(g).map_index == 1


# --- the batched path: one forward pass for many inputs ----------------------

REPORT_ARRAYS = ("total_mean", "total_variance", "explained", "unexplained", "map_mean")


def test_batch_report_agrees_row_by_row_with_single_reports():
    model = build_mdn(3, [16, 16], 4, 2, seed=11)
    x = np.random.default_rng(5).normal(size=(40, 3))
    batch = report(model, x)
    assert batch.map_index.shape == (40,)
    for i, xi in enumerate(x):
        one = report(model, xi)
        assert isinstance(one.map_index, int)
        assert one.map_index == batch.map_index[i]
        for name in REPORT_ARRAYS:
            single, row = getattr(one, name), getattr(batch, name)[i]
            assert single.shape == (2,)
            assert np.all(np.abs(row - single) <= 1e-12 * np.abs(single)), name


def test_three_dimensional_batch_reaches_the_forward_check():
    model = build_mdn(2, [8], 3, 1, seed=1)
    with pytest.raises(ConfigError, match=r"\(4, 2, 2\)"):
        report(model, np.zeros((4, 2, 2)))


def test_batch_of_one_keeps_batch_shapes():
    model = build_mdn(3, [8], 4, 2, seed=11)
    rep = report(model, np.zeros((1, 3)))
    assert rep.explained.shape == (1, 2)
    assert rep.map_index.shape == (1,)


def test_batch_total_variance_is_explained_plus_unexplained():
    model = build_mdn(2, [16], 5, 3, seed=12)
    rep = report(model, np.random.default_rng(6).uniform(-6, 6, size=(200, 2)))
    parts = rep.explained + rep.unexplained
    assert np.all(np.abs(rep.total_variance - parts) <= 1e-12 * rep.total_variance)


def test_batch_k1_explained_is_exactly_zero():
    model = build_mdn(2, [16], 1, 2, seed=13)
    rep = report(model, np.random.default_rng(7).uniform(-6, 6, size=(200, 2)))
    assert np.all(rep.explained == 0.0)
    assert np.all(rep.map_index == 0)


def test_moments_accept_a_batch_of_mixtures():
    rng = np.random.default_rng(8)
    w = rng.random((6, 4)) + 1e-3
    w /= w.sum(axis=1, keepdims=True)
    batch = GmmBatch(w, rng.normal(0.0, 3.0, (6, 4, 3)), rng.uniform(0.05, 4.5, (6, 4, 3)))
    rep = report_from_gmm(batch)
    rows = [report_from_gmm(batch.row(i)) for i in range(6)]
    for name in ("total_mean", "explained", "unexplained", "total_variance"):
        got = getattr(rep, name)
        assert got.shape == (6, 3)
        for i in range(6):
            assert np.array_equal(got[i], getattr(rows[i], name)), name
    assert np.array_equal(rep.map_index, np.argmax(w, axis=1))
    assert np.array_equal(rep.map_mean, batch.means[np.arange(6), rep.map_index])
