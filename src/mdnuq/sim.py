"""Multi-lane straight-track driving simulator.

Geometry: x runs along the track, y is lateral and positive toward the left
of the driving direction, headings are degrees counterclockwise from +x (so
positive angular velocity steers left). Lane 0 is the rightmost lane; lane
centers sit at (i + 0.5) * lane_width. Cars are oriented rectangles; ticks
run at 10 Hz. Traffic cars keep their lane at a scripted cruise speed with
a simple car-following slowdown when blocked.

The per-tick scans give the same bits as all-pairs scans but spend their
costly work only where it can matter. Collision detection runs the
separating-axis test only on cars whose circumscribed circle meets the
ego's, since rectangles whose circles do not meet cannot overlap. Features,
center-lane speeds and traffic car-following read only the lanes they need
from `SimState.traffic_by_lane`, a per-lane list of traffic indices that is
kept across ticks and rebuilt only when the track's lanes or some car's
lateral position change (traffic keeps its lane, so within an episode it is
built once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .nn import ConfigError

KMH_TO_MPS = 1.0 / 3.6
D_MAX = 50.0  # feature clip distance, meters
CAR_LENGTH = 4.5
CAR_WIDTH = 1.8
W_MAX_DEGPS = 45.0
CRUISE_SPEED_KMH = 90.0


class OffTrackError(RuntimeError):
    """Ego left the track laterally; the episode counts as a collision."""


class SpawnError(RuntimeError):
    """Requested traffic density cannot be placed without overlaps."""


@dataclass
class Track:
    num_lanes: int = 6
    lane_width: float = 3.7
    segment_length: float = 350.0
    start: float = 0.0

    def __post_init__(self):
        if self.num_lanes < 1 or self.lane_width <= 0 or self.segment_length <= 0:
            raise ConfigError("track dimensions must be positive")

    @property
    def goal(self) -> float:
        return self.start + self.segment_length

    @property
    def width(self) -> float:
        return self.num_lanes * self.lane_width

    def lane_center(self, index: int) -> float:
        return (index + 0.5) * self.lane_width

    def lane_index(self, y: float) -> int:
        """Lane containing a lateral position inside the track (the top edge counts
        as the leftmost lane)."""
        if y < 0.0 or y > self.width:
            raise OffTrackError(f"lateral position {y:.2f} outside [0, {self.width:.2f}]")
        return min(int(y / self.lane_width), self.num_lanes - 1)


@dataclass
class CarState:
    x: float
    y: float
    heading_deg: float = 0.0
    speed_kmh: float = 0.0
    length: float = CAR_LENGTH
    width: float = CAR_WIDTH


@dataclass
class TrafficCar:
    car: CarState
    cruise_kmh: float


@dataclass
class SimState:
    ego: CarState
    traffic: list[CarState]
    time: float = 0.0
    dt: float = 0.1  # 10 Hz control frequency
    _lane_key: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _by_lane: list[list[int]] = field(default_factory=list, init=False, repr=False, compare=False)

    def traffic_by_lane(self, track: Track) -> list[list[int]]:
        """Indices into `traffic` per lane, in traffic order.

        Rebuilt whenever the lane geometry or any car's `y` differs from the
        last build, so moving, replacing, adding or removing a car never
        leaves it stale. A car off the track raises `OffTrackError` and is
        never stored.
        """
        key = (track.lane_width, track.num_lanes, [car.y for car in self.traffic])
        if key != self._lane_key:
            by_lane: list[list[int]] = [[] for _ in range(track.num_lanes)]
            for i, car in enumerate(self.traffic):
                by_lane[track.lane_index(car.y)].append(i)
            self._lane_key, self._by_lane = key, by_lane
        return self._by_lane


@dataclass
class FeatureVector:
    """Frontal/rearward bumper gaps per neighboring lane plus lane offset.

    Gaps are clipped to [0, D_MAX]; a missing lane or an empty lane reads as
    D_MAX. `lane_offset` is the ego's signed offset from its lane center,
    positive toward the left.
    """

    front_left: float
    front_center: float
    front_right: float
    back_left: float
    back_center: float
    back_right: float
    lane_offset: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.front_left,
                self.front_center,
                self.front_right,
                self.back_left,
                self.back_center,
                self.back_right,
                self.lane_offset,
            ]
        )

    def normalized(self, track: Track) -> np.ndarray:
        """Network input scaling: gaps by D_MAX, offset by the half lane width."""
        arr = self.as_array()
        arr[:6] /= D_MAX
        arr[6] /= 0.5 * track.lane_width
        return arr


def wrap_angle_deg(angle: float) -> float:
    """Wrap to (-180, 180]."""
    a = math.fmod(angle + 180.0, 360.0)
    if a <= 0.0:
        a += 360.0
    return a - 180.0


def extract_features(state: SimState, track: Track) -> FeatureVector:
    ego = state.ego
    lane = track.lane_index(ego.y)
    by_lane = state.traffic_by_lane(track)
    cars = state.traffic
    ex, el = ego.x, ego.length
    gaps = {}
    for label, rel in (("left", 1), ("center", 0), ("right", -1)):
        target = lane + rel
        front = rear = D_MAX
        if 0 <= target < track.num_lanes:
            # `if 0.0 > g: g = 0.0` and `if g < best: best = g` are the
            # builtins' max(g, 0.0) and min(best, g), NaN and -0.0 included
            for i in by_lane[target]:
                car = cars[i]
                x, half = car.x, 0.5 * (car.length + el)
                if x > ex:
                    gap = x - ex - half
                    if 0.0 > gap:
                        gap = 0.0
                    if gap < front:
                        front = gap
                else:
                    gap = ex - x - half
                    if 0.0 > gap:
                        gap = 0.0
                    if gap < rear:
                        rear = gap
        gaps[label] = (min(front, D_MAX), min(rear, D_MAX))
    return FeatureVector(
        front_left=gaps["left"][0],
        front_center=gaps["center"][0],
        front_right=gaps["right"][0],
        back_left=gaps["left"][1],
        back_center=gaps["center"][1],
        back_right=gaps["right"][1],
        lane_offset=ego.y - track.lane_center(lane),
    )


class NeighborSpeeds(NamedTuple):
    """Speeds (m/s) of the closest center-lane cars; None when absent."""

    front: float | None
    rear: float | None


def center_lane_speeds(state: SimState, track: Track) -> NeighborSpeeds:
    ego = state.ego
    lane = track.lane_index(ego.y)
    cars = state.traffic
    front = rear = None
    front_dx = rear_dx = math.inf
    for i in state.traffic_by_lane(track)[lane]:
        car = cars[i]
        dx = car.x - ego.x
        if dx > 0 and dx < front_dx:
            front_dx, front = dx, car.speed_kmh * KMH_TO_MPS
        elif dx <= 0 and -dx < rear_dx:
            rear_dx, rear = -dx, car.speed_kmh * KMH_TO_MPS
    return NeighborSpeeds(front, rear)


def step_unicycle(car: CarState, v_kmh: float, w_degps: float, dt: float) -> CarState:
    """Advance one tick: integrate heading first, then move along it."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    heading = wrap_angle_deg(car.heading_deg + w_degps * dt)
    rad = math.radians(heading)
    dist = v_kmh * KMH_TO_MPS * dt
    return replace(
        car,
        x=car.x + dist * math.cos(rad),
        y=car.y + dist * math.sin(rad),
        heading_deg=heading,
        speed_kmh=v_kmh,
    )


def feedback_heading_controller(
    current_deg: float, desired_deg: float, w_max: float = W_MAX_DEGPS
) -> float:
    """Quadratic heading feedback, w = 2 * sign(diff) * diff^2, clamped to +-w_max."""
    diff = wrap_angle_deg(desired_deg - current_deg)
    w = 2.0 * math.copysign(diff * diff, diff)
    return max(-w_max, min(w_max, w))


def safe_controller(
    features: FeatureVector,
    speeds: NeighborSpeeds,
    theta_dev_deg: float,
    d_dev_m: float,
) -> tuple[float, float]:
    """Rule-based lane keeper; returns (speed m/s, angular velocity deg/s).

    Speed backs off below the frontal car when the frontal gap closes under
    3 m, speeds past a tailgater, and otherwise averages the two neighbors
    (missing neighbors default to the cruise speed). Steering is heading
    damping plus lane-center correction in the left-positive convention,
    gains (5, 50) with the heading deviation in degrees.
    """
    cruise_mps = CRUISE_SPEED_KMH * KMH_TO_MPS
    v_front = speeds.front if speeds.front is not None else cruise_mps
    v_rear = speeds.rear if speeds.rear is not None else cruise_mps
    if features.front_center < 3.0:
        v = v_front - 5.0
    elif features.back_center < 3.0:
        v = v_rear + 3.0
    else:
        v = 0.5 * (v_front + v_rear)
    w = -5.0 * theta_dev_deg - 50.0 * d_dev_m
    return max(v, 0.0), max(-W_MAX_DEGPS, min(W_MAX_DEGPS, w))


def box_corners(car: CarState) -> np.ndarray:
    rad = math.radians(car.heading_deg)
    c, s = math.cos(rad), math.sin(rad)
    hl, hw = 0.5 * car.length, 0.5 * car.width
    local = np.array([[hl, hw], [hl, -hw], [-hl, -hw], [-hl, hw]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([car.x, car.y])


def boxes_overlap(a: CarState, b: CarState) -> bool:
    """Oriented-rectangle overlap via the separating-axis test."""
    ca, cb = box_corners(a), box_corners(b)
    for rad in (math.radians(a.heading_deg), math.radians(b.heading_deg)):
        for axis in ((math.cos(rad), math.sin(rad)), (-math.sin(rad), math.cos(rad))):
            ax = np.array(axis)
            pa, pb = ca @ ax, cb @ ax
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def detect_collision(state: SimState, track: Track) -> bool:
    """True when the ego body leaves the track laterally or overlaps a car."""
    ego = state.ego
    rad = math.radians(ego.heading_deg)
    lateral_extent = 0.5 * (
        ego.width * abs(math.cos(rad)) + ego.length * abs(math.sin(rad))
    )
    if ego.y - lateral_extent < 0.0 or ego.y + lateral_extent > track.width:
        return True
    ex, ey = ego.x, ego.y
    ego_radius = 0.5 * math.hypot(ego.length, ego.width)
    hypot = math.hypot
    for car in state.traffic:
        # Bounding-circle prefilter: a car whose centre lies beyond the two
        # half-diagonals cannot overlap the ego. The relative pad only lets
        # more cars through to the exact test, so rounding never hides an
        # overlap; a NaN distance is not `>` and falls through as well.
        # Half of length + width is at least the half-diagonal and |dx| at
        # most the centre distance, so the cheap x test drops only cars the
        # circle test drops too.
        dx = car.x - ex
        if abs(dx) > (1.0 + 1e-9) * (ego_radius + 0.5 * (car.length + car.width)):
            continue
        reach = (1.0 + 1e-9) * (ego_radius + 0.5 * hypot(car.length, car.width))
        if hypot(dx, car.y - ey) > reach:
            continue
        if boxes_overlap(ego, car):
            return True
    return False


def min_gap_to_cars(state: SimState) -> float:
    """Smallest bumper-to-bumper gap to any traffic car (axis-aligned approximation)."""
    ego = state.ego
    ex, ey, el, ew = ego.x, ego.y, ego.length, ego.width
    hypot = math.hypot
    best = math.inf
    for car in state.traffic:
        # the `if` clamps are max(d, 0.0) and min(best, d), NaN and -0.0 included
        dy = abs(car.y - ey) - 0.5 * (car.width + ew)
        if 0.0 > dy:
            dy = 0.0
        if dy >= best:  # hypot(dx, dy) >= dy: this car cannot lower the minimum
            continue
        dx = abs(car.x - ex) - 0.5 * (car.length + el)
        if 0.0 > dx:
            dx = 0.0
        gap = hypot(dx, dy)
        if gap < best:
            best = gap
    return best


class KeepClear(NamedTuple):
    x: float
    lane: int
    half_length: float


@dataclass
class TrafficSpec:
    density: float = 1.0
    speed_range_kmh: tuple[float, float] = (55.0, 105.0)
    seed: int = 0
    spacing_m: float = 50.0  # one car per this many meters of lane at density 1
    min_gap_m: float = 12.0
    rear_margin_m: float = 60.0

    def validate(self) -> None:
        if self.density < 0:
            raise ConfigError("density must be nonnegative")
        if self.speed_range_kmh[0] > self.speed_range_kmh[1]:
            raise ConfigError("speed range must be ordered")


def spawn_traffic(
    spec: TrafficSpec, track: Track, keep_clear: list[KeepClear] | None = None
) -> list[TrafficCar]:
    """Place lane-keeping traffic with non-overlapping gaps, seeded."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    lo = track.start - spec.rear_margin_m
    hi = track.goal
    count = round(spec.density * track.num_lanes * (hi - lo) / spec.spacing_m)
    keep_clear = keep_clear or []
    placed: list[TrafficCar] = []
    lane_xs: list[list[float]] = [[] for _ in range(track.num_lanes)]
    for _ in range(count):
        for attempt in range(200):
            lane = int(rng.integers(track.num_lanes))
            x = float(rng.uniform(lo, hi))
            ok = all(
                abs(x - other_x) - CAR_LENGTH >= spec.min_gap_m for other_x in lane_xs[lane]
            ) and all(
                zone.lane != lane or abs(x - zone.x) >= zone.half_length
                for zone in keep_clear
            )
            if ok:
                speed = float(rng.uniform(*spec.speed_range_kmh))
                placed.append(
                    TrafficCar(
                        CarState(x=x, y=track.lane_center(lane), speed_kmh=speed),
                        cruise_kmh=speed,
                    )
                )
                lane_xs[lane].append(x)
                break
        else:
            raise SpawnError(
                f"could not place car {len(placed) + 1}/{count} at density {spec.density}"
            )
    return placed


class Simulation:
    """Owns one episode's state; deterministic given the initial scene.

    `state.traffic[i]` is `traffic[i].car`: a caller that adds, removes or
    replaces a car does so in both lists.
    """

    def __init__(self, track: Track, ego: CarState, traffic: list[TrafficCar]):
        self.track = track
        self.traffic = traffic
        self.state = SimState(ego=ego, traffic=[tc.car for tc in traffic])
        self.follow_gap_m = 10.0

    def _advance_traffic(self) -> None:
        """Car-following: each car matches its leader's speed inside the follow gap.

        The leader is the nearest car ahead in the same lane, the ego
        included; among equal gaps the first in traffic order wins, the ego
        last. Order along a lane is not assumed: a follower takes its
        leader's previous speed, so traffic cars can pass through each other.
        """
        state, traffic, follow_gap = self.state, self.traffic, self.follow_gap_m
        cars = state.traffic  # cars[i] is traffic[i].car
        by_lane = state.traffic_by_lane(self.track)
        ego = state.ego
        ego_lane = self.track.lane_index(ego.y)
        speeds = [0.0] * len(cars)
        for lane, members in enumerate(by_lane):
            mates = [cars[i] for i in members]
            if lane == ego_lane:
                mates.append(ego)
            for i in members:
                car = cars[i]
                x, length = car.x, car.length
                lead_gap, lead_speed = math.inf, None
                for other in mates:
                    other_x = other.x
                    if other_x <= x:  # also skips `car` itself
                        continue
                    gap = other_x - x - 0.5 * (other.length + length)
                    if gap < lead_gap:
                        lead_gap, lead_speed = gap, other.speed_kmh
                v = traffic[i].cruise_kmh
                if lead_speed is not None and lead_gap < follow_gap and lead_speed < v:
                    v = lead_speed  # min(v, lead_speed)
                speeds[i] = v
        for car, v in zip(cars, speeds):
            car.x += v * KMH_TO_MPS * state.dt
            car.speed_kmh = v

    def step(self, ego_v_kmh: float, ego_w_degps: float) -> None:
        """Advance everything one tick (traffic from the pre-step snapshot)."""
        self._advance_traffic()
        self.state.ego = step_unicycle(
            self.state.ego, ego_v_kmh, ego_w_degps, self.state.dt
        )
        self.state.time += self.state.dt
