import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnuq.sim import (
    CAR_LENGTH,
    CarState,
    D_MAX,
    KMH_TO_MPS,
    KeepClear,
    NeighborSpeeds,
    OffTrackError,
    SimState,
    Simulation,
    SpawnError,
    Track,
    TrafficCar,
    TrafficSpec,
    boxes_overlap,
    center_lane_speeds,
    detect_collision,
    extract_features,
    feedback_heading_controller,
    min_gap_to_cars,
    safe_controller,
    spawn_traffic,
    step_unicycle,
    wrap_angle_deg,
)

from oracles import (
    brute_force_center_lane_speeds,
    brute_force_collision,
    brute_force_features,
    brute_force_follow_speeds,
    brute_force_min_gap,
    rectangles_overlap,
)


def make_track():
    return Track()


def centered_ego(track, lane=2, x=100.0):
    return CarState(x=x, y=track.lane_center(lane), speed_kmh=90.0)


# --- features ---------------------------------------------------------------


def test_empty_road_features():
    track = make_track()
    state = SimState(ego=centered_ego(track), traffic=[])
    f = extract_features(state, track)
    assert f.as_array()[:6].tolist() == [D_MAX] * 6
    assert f.lane_offset == 0.0


def test_single_car_ahead_gap():
    track = make_track()
    ego = centered_ego(track)
    other = CarState(x=ego.x + 10.0, y=ego.y, speed_kmh=60.0)
    f = extract_features(SimState(ego=ego, traffic=[other]), track)
    assert f.front_center == pytest.approx(10.0 - 4.5)  # bumper to bumper
    assert f.front_left == D_MAX and f.front_right == D_MAX
    assert f.back_center == D_MAX


def test_missing_lane_reads_d_max():
    track = make_track()
    ego = centered_ego(track, lane=0)
    other = CarState(x=ego.x + 8.0, y=track.lane_center(1), speed_kmh=50.0)
    f = extract_features(SimState(ego=ego, traffic=[other]), track)
    assert f.front_right == D_MAX  # no lane to the right of lane 0
    assert f.front_left == pytest.approx(3.5)


def test_features_match_brute_force_oracle():
    track = make_track()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        lane = int(rng.integers(track.num_lanes))
        ego = CarState(
            x=float(rng.uniform(0, 300)),
            y=track.lane_center(lane) + float(rng.uniform(-1.5, 1.5)),
            speed_kmh=90.0,
        )
        traffic = [
            CarState(
                x=float(rng.uniform(-50, 350)),
                y=track.lane_center(int(rng.integers(track.num_lanes))),
                speed_kmh=60.0,
            )
            for _ in range(int(rng.integers(0, 25)))
        ]
        f = extract_features(SimState(ego=ego, traffic=traffic), track)
        ref = brute_force_features(ego, traffic, track, D_MAX)
        assert f.front_left == ref["front_left"]
        assert f.front_center == ref["front_center"]
        assert f.front_right == ref["front_right"]
        assert f.back_left == ref["back_left"]
        assert f.back_center == ref["back_center"]
        assert f.back_right == ref["back_right"]
        assert f.lane_offset == pytest.approx(ref["lane_offset"])


def test_off_track_ego_raises_feature_error():
    track = make_track()
    ego = CarState(x=0.0, y=track.width + 1.0, speed_kmh=90.0)
    with pytest.raises(OffTrackError):
        extract_features(SimState(ego=ego, traffic=[]), track)


def test_normalized_features_are_bounded():
    track = make_track()
    ego = CarState(x=0.0, y=track.lane_center(1) + 1.2, speed_kmh=90.0)
    f = extract_features(SimState(ego=ego, traffic=[]), track)
    z = f.normalized(track)
    assert z.shape == (7,)
    assert np.all(z[:6] == 1.0)
    assert abs(z[6]) <= 1.0


# --- dynamics ---------------------------------------------------------------


def test_unicycle_straight_advance():
    car = CarState(x=0.0, y=0.0, heading_deg=0.0, speed_kmh=90.0)
    nxt = step_unicycle(car, 90.0, 0.0, 0.1)
    assert nxt.x == pytest.approx(2.5)  # 90 km/h = 25 m/s
    assert nxt.y == 0.0


def test_unicycle_zero_speed_still_integrates_heading():
    car = CarState(x=1.0, y=2.0, heading_deg=10.0, speed_kmh=50.0)
    nxt = step_unicycle(car, 0.0, 30.0, 0.1)
    assert (nxt.x, nxt.y) == (1.0, 2.0)
    assert nxt.heading_deg == pytest.approx(13.0)


def test_unicycle_constant_turn_traces_circle():
    v_kmh, w = 90.0, 9.0
    radius = (v_kmh * KMH_TO_MPS) / math.radians(w)
    car = CarState(x=0.0, y=0.0, heading_deg=0.0, speed_kmh=v_kmh)
    pts = []
    for _ in range(2400):
        car = step_unicycle(car, v_kmh, w, 0.1)
        pts.append((car.x, car.y))
    pts = np.array(pts)
    cx = 0.5 * (pts[:, 0].min() + pts[:, 0].max())
    cy = 0.5 * (pts[:, 1].min() + pts[:, 1].max())
    radii = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    assert np.max(np.abs(radii - radius)) / radius < 0.01


def test_heading_wrap():
    assert wrap_angle_deg(190.0) == pytest.approx(-170.0)
    assert wrap_angle_deg(-190.0) == pytest.approx(170.0)
    assert wrap_angle_deg(180.0) == pytest.approx(180.0)
    assert wrap_angle_deg(540.0) == pytest.approx(180.0)


# --- controllers ------------------------------------------------------------


def test_feedback_controller_examples():
    assert feedback_heading_controller(0.0, 0.0) == 0.0
    assert feedback_heading_controller(0.0, 3.0, w_max=1e9) == pytest.approx(18.0)
    assert feedback_heading_controller(0.0, -3.0, w_max=1e9) == pytest.approx(-18.0)
    assert feedback_heading_controller(0.0, 90.0, w_max=45.0) == 45.0
    # wrap-around: desired 179 vs current -179 is a -2 degree turn
    assert feedback_heading_controller(179.0, -179.0, w_max=1e9) == pytest.approx(8.0)


def test_safe_controller_speed_rules():
    track = make_track()
    ego = centered_ego(track)

    def features(front_gap, back_gap=D_MAX):
        cars = []
        if front_gap < D_MAX:
            cars.append(CarState(x=ego.x + front_gap + 4.5, y=ego.y, speed_kmh=72.0))
        if back_gap < D_MAX:
            cars.append(CarState(x=ego.x - back_gap - 4.5, y=ego.y, speed_kmh=72.0))
        return extract_features(SimState(ego=ego, traffic=cars), track)

    v, _ = safe_controller(features(2.0), NeighborSpeeds(20.0, None), 0.0, 0.0)
    assert v == pytest.approx(15.0)  # frontal too close: lead speed - 5
    v, _ = safe_controller(features(10.0, 2.0), NeighborSpeeds(20.0, 18.0), 0.0, 0.0)
    assert v == pytest.approx(21.0)  # tailgater: rear speed + 3
    v, _ = safe_controller(features(10.0), NeighborSpeeds(20.0, 18.0), 0.0, 0.0)
    assert v == pytest.approx(19.0)  # otherwise the average
    cruise = 90.0 * KMH_TO_MPS
    v, w = safe_controller(features(D_MAX), NeighborSpeeds(None, None), 0.0, 0.0)
    assert v == pytest.approx(cruise)  # empty road: defaults keep cruise speed
    assert w == 0.0


def test_safe_controller_lane_keeping_converges_within_five_seconds():
    track = make_track()
    for offset in (-1.85, -0.6, 0.6, 1.85):
        ego = CarState(x=0.0, y=track.lane_center(2) + offset, speed_kmh=90.0)
        simu = Simulation(track, ego, [])
        converged_at = None
        for _ in range(100):  # 10 s
            f = extract_features(simu.state, track)
            speeds = center_lane_speeds(simu.state, track)
            theta = wrap_angle_deg(simu.state.ego.heading_deg)
            v_mps, w = safe_controller(f, speeds, theta, f.lane_offset)
            simu.step(v_mps / KMH_TO_MPS, w)
            off_now = extract_features(simu.state, track).lane_offset
            if converged_at is None and abs(off_now) < 0.05:
                converged_at = simu.state.time
        assert converged_at is not None and converged_at <= 5.0
        assert abs(extract_features(simu.state, track).lane_offset) < 0.05


# --- collisions -------------------------------------------------------------


def test_lone_centered_ego_no_collision():
    track = make_track()
    state = SimState(ego=centered_ego(track), traffic=[])
    assert not detect_collision(state, track)


def test_off_track_is_collision():
    track = make_track()
    ego = CarState(x=0.0, y=track.width - 0.5, speed_kmh=90.0)  # body pokes out
    assert detect_collision(SimState(ego=ego, traffic=[]), track)


def test_identical_rectangles_overlap():
    a = CarState(x=5.0, y=5.0, heading_deg=30.0, speed_kmh=0.0)
    b = CarState(x=5.0, y=5.0, heading_deg=30.0, speed_kmh=0.0)
    assert boxes_overlap(a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-180.0, 180.0),
    st.floats(-180.0, 180.0),
    st.floats(0.0, 20.0),
)
def test_overlap_is_symmetric(ax, ay, ha, hb, gap):
    a = CarState(x=ax, y=ay, heading_deg=ha, speed_kmh=0.0)
    b = CarState(x=ax + gap, y=ay, heading_deg=hb, speed_kmh=0.0)
    assert boxes_overlap(a, b) == boxes_overlap(b, a)
    if gap > math.hypot(4.5, 1.8):  # beyond both half-diagonals: never overlap
        assert not boxes_overlap(a, b)


def test_min_gap_examples():
    track = make_track()
    ego = centered_ego(track)
    car = CarState(x=ego.x + 14.5, y=ego.y, speed_kmh=0.0)
    state = SimState(ego=ego, traffic=[car])
    assert min_gap_to_cars(state) == pytest.approx(10.0)
    assert min_gap_to_cars(SimState(ego=ego, traffic=[])) == math.inf


# --- traffic ----------------------------------------------------------------


def test_spawn_density_zero_is_empty():
    assert spawn_traffic(TrafficSpec(density=0.0), make_track()) == []


def test_spawn_deterministic():
    track = make_track()
    a = spawn_traffic(TrafficSpec(density=1.0, seed=5), track)
    b = spawn_traffic(TrafficSpec(density=1.0, seed=5), track)
    assert [(c.car.x, c.car.y, c.cruise_kmh) for c in a] == [
        (c.car.x, c.car.y, c.cruise_kmh) for c in b
    ]


def test_spawn_density_scales_car_count():
    track = make_track()
    full = spawn_traffic(TrafficSpec(density=1.0, seed=1), track)
    reduced = spawn_traffic(TrafficSpec(density=0.8, seed=1), track)
    assert len(reduced) == pytest.approx(0.8 * len(full), rel=0.05)


def test_spawn_respects_gaps_and_clear_zone():
    track = make_track()
    clear = [KeepClear(x=0.0, lane=2, half_length=25.0)]
    traffic = spawn_traffic(TrafficSpec(density=1.2, seed=3), track, keep_clear=clear)
    for i, a in enumerate(traffic):
        lane_a = track.lane_index(a.car.y)
        if lane_a == 2:
            assert abs(a.car.x - 0.0) >= 25.0
        for b in traffic[i + 1 :]:
            if track.lane_index(b.car.y) == lane_a:
                assert abs(a.car.x - b.car.x) - 4.5 >= 12.0 - 1e-9


def test_spawn_infeasible_density_raises():
    with pytest.raises(SpawnError):
        spawn_traffic(TrafficSpec(density=30.0, seed=0), make_track())


def test_traffic_car_following_slows_to_leader():
    track = make_track()
    slow = CarState(x=50.0, y=track.lane_center(1), speed_kmh=40.0)
    fast = CarState(x=40.0, y=track.lane_center(1), speed_kmh=80.0)
    simu = Simulation(
        track,
        CarState(x=-100.0, y=track.lane_center(5), speed_kmh=90.0),
        [TrafficCar(slow, 40.0), TrafficCar(fast, 80.0)],
    )
    for _ in range(100):
        simu.step(90.0, 0.0)
    gap = slow.x - fast.x - 4.5
    assert gap > 0.0  # never rear-ends
    assert fast.speed_kmh == pytest.approx(40.0)  # matched the leader


def test_traffic_follows_the_ego_as_leader():
    track = make_track()
    ego = CarState(x=100.0, y=track.lane_center(2), speed_kmh=60.0)
    behind = CarState(x=94.0, y=track.lane_center(2), speed_kmh=100.0)
    simu = Simulation(track, ego, [TrafficCar(behind, 100.0)])
    simu.step(60.0, 0.0)
    assert behind.speed_kmh == 60.0  # 1.5 m behind the ego: matched its speed


@pytest.mark.parametrize("side", [1, -1])
def test_traffic_follows_the_ego_mid_lane_change(side):
    # the ego straddles the boundary between lanes 1 and 2, heading across it;
    # it leads only the lane its centre lies in
    track = make_track()
    y = 2 * track.lane_width + side * 0.1
    ego = CarState(x=100.0, y=y, heading_deg=-20.0 * side, speed_kmh=50.0)
    in_lane_2 = CarState(x=92.0, y=track.lane_center(2), speed_kmh=100.0)
    in_lane_1 = CarState(x=92.0, y=track.lane_center(1), speed_kmh=100.0)
    simu = Simulation(track, ego, [TrafficCar(in_lane_2, 100.0), TrafficCar(in_lane_1, 100.0)])
    simu.step(50.0, 0.0)
    followers = (in_lane_2, in_lane_1) if side == 1 else (in_lane_1, in_lane_2)
    assert followers[0].speed_kmh == 50.0
    assert followers[1].speed_kmh == 100.0


def _scene(seed):
    return spawn_traffic(TrafficSpec(density=1.0, seed=seed), make_track())


def test_collision_and_min_gap_match_brute_force_oracles():
    """The bounding-circle prefilter and the x skip before it never change
    `detect_collision`, nor the lateral skip `min_gap_to_cars`.

    Egos are dropped next to traffic with rotated headings, some of them at
    centre distances within 1e-6 of the sum of the half-diagonals, and some
    corner to corner right at that sum, where the prefilter's cut lies.
    """
    track = make_track()
    rng = np.random.default_rng(8)
    radius = 0.5 * math.hypot(4.5, 1.8)
    corner = math.degrees(math.atan2(1.8, 4.5))
    outcomes = {True: 0, False: 0}
    near_cut = 0
    for seed in range(20):
        traffic = [tc.car for tc in _scene(seed)]
        for k in range(200):
            cars = [
                replace(c, heading_deg=float(rng.uniform(-30, 30))) if rng.random() < 0.2 else c
                for c in traffic
            ]
            pick = int(rng.integers(len(cars)))
            target = cars[pick]
            heading = float(rng.uniform(-180, 180))
            if k % 4 == 0:  # centre distance within 1e-6 of 2 * radius
                bearing = math.radians(rng.uniform(-180, 180))
                dist = 2 * radius + float(rng.uniform(-1e-6, 1e-6))
                near_cut += 1
            elif k % 4 == 1:  # corner to corner along the line of centres
                # half of them tilted so the diagonals lie along x, where a
                # touching pair's |dx| is largest
                tilt = 0.0 if k % 8 == 1 else -corner
                target = cars[pick] = replace(target, heading_deg=tilt)
                bearing = math.radians(corner + tilt)
                heading = tilt
                dist = 2 * radius * (1.0 + float(rng.choice([-1e-8, 1e-8])))
                near_cut += 1
            else:
                bearing = math.radians(rng.uniform(-180, 180))
                dist = float(rng.uniform(0.0, 8.0))
            ego = CarState(
                x=target.x + dist * math.cos(bearing),
                y=target.y + dist * math.sin(bearing),
                heading_deg=heading,
                speed_kmh=90.0,
            )
            state = SimState(ego=ego, traffic=cars)
            got = detect_collision(state, track)
            assert got == brute_force_collision(ego, cars, track)
            assert min_gap_to_cars(state) == brute_force_min_gap(ego, cars)
            if k % 4 == 1:
                assert rectangles_overlap(ego, target) == (dist < 2 * radius)
            outcomes[got] += 1
    assert near_cut >= 2000 and min(outcomes.values()) >= 500


def test_car_following_matches_all_pairs_oracle():
    """Leader search over perturbed traffic: packed lanes, equal positions
    (the first-found tie-break), mixed lengths and cars passing through each
    other, against the all-pairs search, tick by tick."""
    track = make_track()
    rng = np.random.default_rng(9)
    ticks = 0
    for seed in range(20):
        traffic = _scene(seed)
        for tc in traffic:
            tc.car.x = 60.0 + 0.4 * tc.car.x  # pack the lanes
            if rng.random() < 0.3:
                tc.car.length = 6.0
            tc.car.speed_kmh = float(rng.uniform(30.0, 110.0))
        for tc in traffic[1::7]:  # ties: share a lane mate's position
            mate = next(o for o in traffic if o is not tc and o.car.y == tc.car.y)
            tc.car.x = mate.car.x
        lane = int(rng.integers(track.num_lanes))
        ego = CarState(x=100.0, y=track.lane_center(lane), speed_kmh=70.0)
        simu = Simulation(track, ego, traffic)
        for _ in range(200):
            want = brute_force_follow_speeds(traffic, simu.state.ego, track, simu.follow_gap_m)
            simu.step(float(rng.uniform(20.0, 120.0)), 0.0)
            assert [tc.car.speed_kmh for tc in traffic] == want
            ticks += 1
    assert ticks >= 4000


def test_lane_index_follows_edits_to_a_reused_state():
    """One Simulation and its SimState reused across edits between ticks: a
    car moved across a lane boundary, a car replaced at the same `y`, a car
    appended and one removed, and tracks with other lane geometry. After
    each edit features, center-lane speeds and car-following match the
    all-cars oracles."""
    track = make_track()
    traffic = _scene(3)
    ego = CarState(x=150.0, y=track.lane_center(2), speed_kmh=80.0)
    simu = Simulation(track, ego, traffic)
    state = simu.state

    def check(ticks=5):
        for _ in range(ticks):
            ego, cars, track = state.ego, state.traffic, simu.track
            lanes = [min(int(c.y / track.lane_width), track.num_lanes - 1) for c in cars]
            assert state.traffic_by_lane(track) == [
                [i for i, lane in enumerate(lanes) if lane == k] for k in range(track.num_lanes)
            ]
            features = asdict(extract_features(state, simu.track))
            assert features == brute_force_features(ego, cars, simu.track, D_MAX)
            speeds = center_lane_speeds(state, simu.track)
            assert tuple(speeds) == brute_force_center_lane_speeds(ego, cars, simu.track)
            want = brute_force_follow_speeds(simu.traffic, ego, simu.track, simu.follow_gap_m)
            simu.step(80.0, 0.0)
            assert [tc.car.speed_kmh for tc in simu.traffic] == want
        return features

    def nearest(lane, ahead=True):
        mates = [
            i for i, c in enumerate(state.traffic)
            if c.y == track.lane_center(lane) and (c.x > state.ego.x) == ahead
        ]
        return min(mates, key=lambda i: abs(state.traffic[i].x - state.ego.x))

    index = state.traffic_by_lane(simu.track)
    before = check()
    assert state.traffic_by_lane(simu.track) is index  # ticks move cars along x only

    # the ego's leader slides one lane left: the center gap opens
    i = nearest(2)
    state.traffic[i].y = track.lane_center(3)
    after = check()
    assert after["front_center"] > before["front_center"]

    # a new car at the same y as the one it replaces: same lanes, new x and speed
    i = nearest(1)
    index = state.traffic_by_lane(simu.track)
    new = CarState(x=state.ego.x + 6.0, y=state.traffic[i].y, speed_kmh=40.0)
    simu.traffic[i] = TrafficCar(new, 40.0)
    state.traffic[i] = new
    assert state.traffic_by_lane(simu.track) is index  # kept: it holds indices, not cars
    assert check(1)["front_right"] == pytest.approx(6.0 - CAR_LENGTH)
    check()

    # one car appended right behind the ego, the first car removed
    tail = CarState(x=state.ego.x - 7.0, y=track.lane_center(2), speed_kmh=120.0)
    simu.traffic.append(TrafficCar(tail, 120.0))
    state.traffic.append(tail)
    del simu.traffic[0], state.traffic[0]
    assert check(1)["back_center"] == pytest.approx(7.0 - CAR_LENGTH)
    assert tail.speed_kmh == 80.0  # it follows the ego
    check()

    # wider lanes regroup the cars; then one lane fewer, which moves a car on
    # the new top edge from lane 5 down to lane 4
    simu.track = Track(lane_width=4.2)
    check()
    state.traffic[nearest(4)].y = 5 * 4.2
    check()
    simu.track = Track(num_lanes=5, lane_width=4.2)
    check()
