import gc
import hashlib
import json
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnuq.mdn import GmmParams, build_mdn
from mdnuq.nn import ConfigError, MlpConfig, MlpNetwork, init_mlp
from mdnuq.policy import (
    CollectionError,
    DemoRandomization,
    HeadingTarget,
    ModelBundle,
    PolicyKind,
    SwitchConfig,
    collect_demonstrations,
    count_lane_changes,
    decide_mode,
    expert_target_lane,
    learned_policy,
    run_episode,
    evaluate_suite,
    steer_toward_lane,
    write_metrics_csv,
    METRICS_COLUMNS,
)
from mdnuq.sim import CarState, D_MAX, FeatureVector, SimState, Track, extract_features
from mdnuq.uncertainty import report, report_from_gmm


def features_for(track, ego, traffic):
    return extract_features(SimState(ego=ego, traffic=traffic), track)


# --- heading encoding --------------------------------------------------------


def test_heading_decode_example():
    assert HeadingTarget(0.6, 0.8).angle_deg() == pytest.approx(53.13010235415599)


@settings(max_examples=200, deadline=None)
@given(st.floats(-179.999, 180.0))
def test_heading_round_trip(angle):
    assert HeadingTarget.from_angle_deg(angle).angle_deg() == pytest.approx(
        angle, abs=1e-9
    )


def test_unnormalized_pair_decodes():
    # decoding uses atan2, so scale does not matter
    assert HeadingTarget(6.0, 8.0).angle_deg() == pytest.approx(53.13010235415599)


# --- switching rule ----------------------------------------------------------


def test_decide_mode_threshold_cases():
    cfg = SwitchConfig()
    t = cfg.log_explained_threshold
    # the largest u with log(u) <= t, found by stepping so no libm rounding is assumed
    u = math.exp(t)
    while math.log(u) > t:
        u = math.nextafter(u, 0.0)
    while math.log(math.nextafter(u, math.inf)) <= t:
        u = math.nextafter(u, math.inf)
    assert decide_mode(u, 50.0, 1.5, t) == "learned"
    assert decide_mode(math.nextafter(u, math.inf), 50.0, 1.5, t) == "safe"  # strict >
    assert decide_mode(math.exp(-1), 50.0, 1.5, t) == "safe"
    assert decide_mode(u, 1.0, 1.5, t) == "safe"  # distance override
    assert decide_mode(None, 2.0, 2.5, t) == "safe"
    assert decide_mode(None, 2.6, 2.5, t) == "learned"
    assert decide_mode(0.0, 50.0, 1.5, t) == "learned"  # zero variance never gates


def test_threshold_monotonicity_on_replayed_sequence():
    rng = np.random.default_rng(0)
    us = rng.uniform(0.0, 1.0, size=500)
    gaps = rng.uniform(0.0, 50.0, size=500)

    def safe_ticks(threshold):
        return sum(
            decide_mode(u, g, 1.5, threshold) == "safe" for u, g in zip(us, gaps)
        )

    counts = [safe_ticks(t) for t in (-4.0, -2.0, -1.0, 0.0)]
    assert counts == sorted(counts, reverse=True)


def heading_mixture(angles_deg, weights):
    """Mixture over the (cos, sin) heading encoding with unit-circle modes."""
    rads = np.radians(angles_deg)
    return GmmParams(
        weights=np.array(weights, dtype=float),
        means=np.column_stack([np.cos(rads), np.sin(rads)]),
        variances=np.full((len(weights), 2), 0.01),
    )


def test_default_explained_gate_fires_on_split_heading_mixture():
    # a boxed-in scene where the MAP mode steers -8 deg into an occupied lane
    # while a minority mode wants +27.6 deg; with the frontal gap above the
    # distance rule, only the default explained gate can hand it to safe mode
    cfg = SwitchConfig()
    split = report_from_gmm(heading_mixture([-8.0, 27.6], [0.7, 0.3])).explained_sum
    assert math.log(split) == pytest.approx(-2.55, abs=0.01)
    gap, rule = 20.0, cfg.immediate_switch_distance_ualfd
    assert decide_mode(split, gap, rule, cfg.log_explained_threshold) == "safe"

    # lane keeping: modes within 2 deg of each other stay with the learned policy
    keep = report_from_gmm(heading_mixture([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])).explained_sum
    assert decide_mode(keep, gap, rule, cfg.log_explained_threshold) == "learned"


# --- expert ------------------------------------------------------------------


def test_expert_goes_straight_on_empty_road():
    track = Track()
    ego = CarState(x=0.0, y=track.lane_center(2), speed_kmh=90.0)
    features = features_for(track, ego, [])
    assert expert_target_lane(features, 2, track) == 2
    assert steer_toward_lane(features, 2, 2, track) == 0.0


def test_expert_steers_toward_larger_open_gap():
    track = Track()
    ego = CarState(x=0.0, y=track.lane_center(2), speed_kmh=90.0)
    blocker = CarState(x=15.0, y=track.lane_center(2), speed_kmh=60.0)
    left_car = CarState(x=45.0, y=track.lane_center(3), speed_kmh=60.0)
    # right lane fully open (gap d_max), left lane has a car at 40m: right wins
    features = features_for(track, ego, [blocker, left_car])
    assert expert_target_lane(features, 2, track) == 1
    assert steer_toward_lane(features, 2, 1, track) < 0.0  # steers right (negative lateral)

    # now block the right lane harder than the left: left wins
    right_car = CarState(x=25.0, y=track.lane_center(1), speed_kmh=60.0)
    features = features_for(track, ego, [blocker, left_car, right_car])
    assert expert_target_lane(features, 2, track) == 3
    assert steer_toward_lane(features, 2, 3, track) > 0.0


def test_expert_respects_rear_gap_safety():
    track = Track()
    ego = CarState(x=0.0, y=track.lane_center(2), speed_kmh=90.0)
    blocker = CarState(x=12.0, y=track.lane_center(2), speed_kmh=60.0)
    tail_left = CarState(x=-5.0, y=track.lane_center(3), speed_kmh=80.0)
    tail_right = CarState(x=-5.0, y=track.lane_center(1), speed_kmh=80.0)
    features = features_for(track, ego, [blocker, tail_left, tail_right])
    assert expert_target_lane(features, 2, track) == 2  # both sides rear-unsafe: stay in lane


def test_expert_never_targets_a_missing_lane():
    track = Track()
    ego = CarState(x=0.0, y=track.lane_center(track.num_lanes - 1), speed_kmh=90.0)
    blocker = CarState(x=10.0, y=ego.y, speed_kmh=60.0)
    lane = track.num_lanes - 1
    features = features_for(track, ego, [blocker])
    target = expert_target_lane(features, lane, track)
    assert target <= lane  # leftmost lane: never target a lane further left
    assert steer_toward_lane(features, lane, target, track) <= 0.0


# --- demonstrations ----------------------------------------------------------


def test_collect_demonstrations_deterministic():
    rnd = DemoRandomization()
    a = collect_demonstrations(3, rnd, seed=5)
    b = collect_demonstrations(3, rnd, seed=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert np.all(np.isfinite(a.inputs)) and np.all(np.isfinite(a.targets))


def test_collect_zero_episodes_raises():
    with pytest.raises(CollectionError):
        collect_demonstrations(0, DemoRandomization(), seed=0)


# --- learned policy ----------------------------------------------------------


def test_policy_trained_on_straight_driving_goes_straight():
    # controlled run: lane-keeping-only pairs, then query exact empty road
    from mdnuq.mdn import TrainSchedule, TrainingSet, build_mdn, train_mdn

    track = Track()
    rng = np.random.default_rng(0)
    offsets = rng.uniform(-0.6, 0.6, size=2000)
    inputs = np.ones((2000, 7))
    inputs[:, 6] = offsets / (0.5 * track.lane_width)
    angles = np.clip(-10.0 * offsets, -25, 25)
    rads = np.radians(angles + rng.normal(0, 2.0, size=2000))
    targets = np.column_stack([np.cos(rads), np.sin(rads)])
    model = build_mdn(7, [32, 32], 2, 2, seed=1)
    train_mdn(
        model,
        TrainingSet(inputs, targets),
        TrainSchedule(epochs=150, batch_size=128, max_grad_norm=5.0),
        seed=1,
    )
    ego = CarState(x=0.0, y=track.lane_center(2), speed_kmh=90.0)
    target = learned_policy(model, features_for(track, ego, []), track)
    assert abs(target.angle_deg()) < 2.0


def test_learned_policy_decodes_bias_heading():
    track = Track()
    net = init_mlp(MlpConfig(7, [4], 2, seed=0))
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    net.layers[-1].biases[:] = [1.0, 0.0]
    ego = CarState(x=0.0, y=track.lane_center(1), speed_kmh=90.0)
    f = features_for(track, ego, [])
    target = learned_policy(net, f, track)
    assert target.angle_deg() == pytest.approx(0.0)

    mdn = build_mdn(7, [4], 2, 2, seed=1)
    t2 = learned_policy(mdn, f, track)
    assert math.isfinite(t2.angle_deg())
    # a gated tick hands over the report it scored: same heading, no forward pass
    assert learned_policy(mdn, f, track, report(mdn, f.normalized(track))) == t2


# --- episodes ----------------------------------------------------------------


def test_count_lane_changes_requires_persistence():
    assert count_lane_changes([2] * 30) == 0
    seq = [2] * 20 + [3] * 20
    assert count_lane_changes(seq) == 1
    flicker = [2] * 20 + [3] * 5 + [2] * 20  # brief excursion does not count
    assert count_lane_changes(flicker) == 0
    two = [2] * 20 + [3] * 20 + [4] * 20
    assert count_lane_changes(two) == 2


def test_safe_mode_on_empty_road():
    bundle = ModelBundle()
    metrics, replay = run_episode(
        PolicyKind.SAFE_MODE, 0, bundle, density=0.0, timeout_s=30.0
    )
    assert not metrics.collision
    assert metrics.num_lane_changes == 0
    assert metrics.safe_mode_fraction == 1.0
    assert metrics.reached_goal
    assert len(replay) > 0
    assert metrics.min_dist_to_cars == D_MAX


GOLDEN_SAFE_MODE_DIGEST = "61b692d17aa3aca0c3d04301792dad0b32a441b4cc6b225994be5e60b2010bfa"


def safe_mode_digest(scenes) -> str:
    """SHA-256 over the metrics and replay rows of safe_mode episodes, floats by repr."""
    digest = hashlib.sha256()
    for scene in scenes:
        metrics, replay = run_episode(PolicyKind.SAFE_MODE, scene, ModelBundle())
        digest.update(json.dumps([sorted(asdict(metrics).items()), replay]).encode())
    return digest.hexdigest()


def test_safe_mode_episodes_match_golden_digest():
    # Computed at commit a3984e3, before the simulator's collision prefilter
    # and per-lane lookups; safe_mode needs no model, so any change here is
    # a change in the simulator or the safe controller.
    assert safe_mode_digest(range(10)) == GOLDEN_SAFE_MODE_DIGEST


GOLDEN_DEMONSTRATIONS_DIGEST = "7cacc89869f772f84e374392273c32765cce0e4d24d70c20e2451b561f7e9c81"


def test_expert_demonstrations_match_golden_digest():
    # Computed at commit 83ea77d, before the per-lane traffic index. The
    # scripted expert changes lanes, which safe_mode barely does, so this
    # pins features and car-following while the ego moves between lanes.
    demos = collect_demonstrations(60, seed=100)
    # the lane offset (column 6, in half lane widths) jumps by ~2 when the
    # ego crosses into the next lane; within a lane a tick moves it < 0.8
    crossings = np.abs(np.diff(demos.inputs[:, 6])) > 1.2
    assert crossings.sum() >= 1
    digest = hashlib.sha256(demos.inputs.tobytes() + demos.targets.tobytes()).hexdigest()
    assert digest == GOLDEN_DEMONSTRATIONS_DIGEST


def test_run_episode_deterministic():
    bundle = ModelBundle()
    a, replay_a = run_episode(PolicyKind.SAFE_MODE, 3, bundle, density=1.0)
    b, replay_b = run_episode(PolicyKind.SAFE_MODE, 3, bundle, density=1.0)
    assert a == b
    assert replay_a == replay_b


def test_missing_model_rejected():
    with pytest.raises(ConfigError):
        run_episode(PolicyKind.UALFD, 0, ModelBundle(), density=0.5)


def test_evaluate_suite_single_seed_matches_episode(tmp_path):
    bundle = ModelBundle()
    rows = evaluate_suite([PolicyKind.SAFE_MODE], 1, [0.5], bundle, seed_base=7)
    metrics, _ = run_episode(PolicyKind.SAFE_MODE, 7, bundle, density=0.5)
    assert len(rows) == 1
    r = rows[0]
    assert r.collision_ratio_pct == 100.0 * metrics.collision
    assert r.elapsed_s == pytest.approx(metrics.elapsed_time)
    assert r.lane_changes == metrics.num_lane_changes

    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(METRICS_COLUMNS)


def test_gated_tick_runs_one_forward_pass(monkeypatch):
    model = build_mdn(7, [16], 3, 2, seed=3)
    calls = []
    original = MlpNetwork.forward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MlpNetwork, "forward", counting)
    # a threshold no mixture reaches keeps every tick past the distance rule learned
    switch = SwitchConfig(log_explained_threshold=50.0)
    _, replay = run_episode(
        PolicyKind.UALFD, 5, ModelBundle(mdn_k10=model), switch=switch, timeout_s=2.0
    )
    assert any(row[5] == "learned" for row in replay)
    assert len(calls) == len(replay)


@pytest.mark.parametrize("kind", [PolicyKind.UALFD, PolicyKind.UALFD2])
def test_gated_policy_reads_its_channel_under_an_explicit_switch(kind):
    # the policy kind picks the channel; passing a SwitchConfig only changes
    # the thresholds, so ualfd2 still gates on the unexplained sum
    model = build_mdn(7, [16], 3, 2, seed=3)
    switch = SwitchConfig(log_unexplained_threshold=-4.25)
    _, replay = run_episode(
        kind, 5, ModelBundle(mdn_k10=model), switch=switch, timeout_s=2.0
    )
    explained = kind is PolicyKind.UALFD
    threshold = (
        switch.log_explained_threshold if explained else switch.log_unexplained_threshold
    )
    track = Track()
    assert replay
    channels_differ = False
    for row in replay:
        rep = report(model, FeatureVector(*row[7:]).normalized(track))
        want = rep.explained_sum if explained else rep.unexplained_sum
        assert row[6] == want
        assert row[5] == decide_mode(
            want, row[8], switch.immediate_switch_distance_ualfd, threshold
        )
        channels_differ |= rep.explained_sum != rep.unexplained_sum
    assert channels_differ


def test_evaluate_suite_keeps_replays_in_seed_order():
    bundle = ModelBundle()
    rows = evaluate_suite(
        [PolicyKind.SAFE_MODE], 2, [0.5], bundle, seed_base=3, keep_replays=True
    )
    assert [len(r.replays) for r in rows] == [2]
    for s, replay in enumerate(rows[0].replays):
        assert replay == run_episode(PolicyKind.SAFE_MODE, 3 + s, bundle, density=0.5)[1]
    assert evaluate_suite([PolicyKind.SAFE_MODE], 1, [0.5], bundle)[0].replays == []


def test_serial_evaluate_suite_releases_its_models():
    # only pool workers keep module state; a serial suite must not pin its bundle
    model = build_mdn(7, [8], 2, 2, seed=0)
    ref = weakref.ref(model)
    evaluate_suite([PolicyKind.MDN_K10], 1, [0.5], ModelBundle(mdn_k10=model))
    del model
    gc.collect()
    assert ref() is None


def test_bundle_loads_only_the_files_its_policies_need(tmp_path):
    k1 = build_mdn(7, [8], 1, 2, seed=1)
    ModelBundle(mdn_k1=k1).save(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["driving_mdn_k1.bin"]
    loaded = ModelBundle.load(tmp_path, [PolicyKind.MDN_K1, PolicyKind.SAFE_MODE])
    assert loaded.mdn_k10 is None and loaded.regnet is None
    assert loaded.mdn_k1.cfg == k1.cfg
    for a, b in zip(loaded.mdn_k1.net.parameter_arrays(), k1.net.parameter_arrays()):
        assert np.array_equal(a, b)
    with pytest.raises(FileNotFoundError):
        ModelBundle.load(tmp_path, [PolicyKind.UALFD])
