"""Driving policies: scripted demonstrator, learned heading policies, the
uncertainty-gated switching wrapper, and episode evaluation.

Learned policies map the normalized 7-feature vector to a trig-encoded
desired heading (cos, sin) relative to the lane direction. The switching
wrapper falls back to the rule-based lane keeper whenever the log of its
uncertainty channel (explained for `ualfd`, unexplained for `ualfd2`)
crosses that channel's threshold or the frontal gap gets critically small;
plain learned policies keep only the distance rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import uncertainty
from .mdn import MdnModel, PolicyTrainConfig, TrainingSet, load_mdn, train_mdn, predict_map
from .modelio import load_model, save_model
from .nn import ConfigError, MlpConfig, MlpNetwork, Optimizer, init_mlp, mse_loss, train_network
from .sim import (
    CRUISE_SPEED_KMH,
    D_MAX,
    KMH_TO_MPS,
    W_MAX_DEGPS,
    CarState,
    FeatureVector,
    KeepClear,
    Simulation,
    Track,
    TrafficSpec,
    center_lane_speeds,
    detect_collision,
    extract_features,
    feedback_heading_controller,
    min_gap_to_cars,
    safe_controller,
    spawn_traffic,
    wrap_angle_deg,
    OffTrackError,
)


class CollectionError(RuntimeError):
    """No collision-free demonstration episodes were produced."""


class PolicyKind(str, Enum):
    UALFD = "ualfd"
    UALFD2 = "ualfd2"
    MDN_K10 = "mdn_k10"
    MDN_K1 = "mdn_k1"
    REGNET = "regnet"
    SAFE_MODE = "safe_mode"


@dataclass
class HeadingTarget:
    cos_component: float
    sin_component: float

    def angle_deg(self) -> float:
        return math.degrees(math.atan2(self.sin_component, self.cos_component))

    @classmethod
    def from_angle_deg(cls, angle: float) -> "HeadingTarget":
        rad = math.radians(angle)
        return cls(math.cos(rad), math.sin(rad))


@dataclass
class SwitchConfig:
    # `ualfd` gates on the explained channel and `ualfd2` on the unexplained
    # one; the policy kind picks the channel, and each reads its own
    # threshold. Both thresholds are calibrated to their channel's
    # distribution over the demonstration inputs of the acceptance pipeline's
    # K=10 driving model (31,031 inputs). That mixture puts demo noise into
    # the component variances, not into mean spread: median log unexplained
    # is -5.88, median log explained -8.94.
    # Explained: under the (cos, sin) heading encoding two equal-weight unit
    # modes at +-theta give explained = sin^2(theta), so log explained > -2
    # would need theta > 21.6 deg, near the demonstrator's 25 deg steering cap
    # (only 2 inputs exceed -2). -3.0 sits at the 98th percentile (p98 = -2.98).
    log_explained_threshold: float = -3.0
    # Unexplained: -4.25 sits at the 84.5th percentile.
    log_unexplained_threshold: float = -4.25
    immediate_switch_distance_ualfd: float = 1.5
    immediate_switch_distance_others: float = 2.5


def decide_mode(
    uncertainty: float | None, front_gap: float, switch_distance: float, log_threshold: float
) -> str:
    """Pure switching rule; `uncertainty` of None disables the uncertainty gate."""
    if front_gap < switch_distance:
        return "safe"
    if uncertainty is not None and uncertainty > 0 and math.log(uncertainty) > log_threshold:
        return "safe"
    return "learned"


# scripted demonstrator gains; the rear gap covers traffic faster than the ego
EXPERT_OPEN_ROAD_GAP = 35.0
EXPERT_SWITCH_MARGIN = 10.0
EXPERT_REAR_SAFE_GAP = 14.0
EXPERT_STEER_GAIN = 10.0  # deg of desired heading per meter of lateral error
EXPERT_STEER_CAP = 25.0
EDGE_BODY_M = 1.2  # lateral room the car body keeps from a track edge
EPISODE_TIMEOUT_S = 60.0
LANE_CHANGE_PERSIST_TICKS = 10


def _side_viable(features: FeatureVector, rel: int, current_lane: int, track: Track, margin: float) -> bool:
    lane = current_lane + rel
    if not 0 <= lane < track.num_lanes:
        return False
    front = features.front_left if rel == 1 else features.front_right
    back = features.back_left if rel == 1 else features.back_right
    return back >= EXPERT_REAR_SAFE_GAP and front > features.front_center + margin


def expert_target_lane(features: FeatureVector, current_lane: int, track: Track) -> int:
    """Lane the expert steers toward: stay on open road, else the viable
    adjacent lane with the largest frontal gap (ties prefer staying, then left)."""
    if features.front_center >= EXPERT_OPEN_ROAD_GAP:
        return current_lane
    target = current_lane
    best_gap = features.front_center + EXPERT_SWITCH_MARGIN
    for rel, front in ((1, features.front_left), (-1, features.front_right)):
        if _side_viable(features, rel, current_lane, track, EXPERT_SWITCH_MARGIN) and front > best_gap:
            best_gap, target = front, current_lane + rel
    return target


def _edge_limit_deg(margin_m: float) -> float:
    """Largest heading toward a track edge the tracker can still unwind.

    Recovering from heading theta at w_max costs v*(1-cos theta)/w_max of
    lateral travel; invert that for the available margin.
    """
    if margin_m <= 0.0:
        return 0.0
    v = CRUISE_SPEED_KMH * KMH_TO_MPS
    w = math.radians(W_MAX_DEGPS)
    return math.degrees(math.acos(max(1.0 - margin_m * w / v, -1.0)))


def _recovery_cost_m(heading_deg: float) -> float:
    v = CRUISE_SPEED_KMH * KMH_TO_MPS
    w = math.radians(W_MAX_DEGPS)
    return v * (1.0 - math.cos(math.radians(abs(heading_deg)))) / w


def edge_guarded_angle(angle_deg: float, y: float, heading_deg: float, track: Track) -> float:
    """Clamp a desired heading so the tracker can always recover before the
    track edge, accounting for the lateral cost of unwinding the heading the
    car already carries."""
    margin_left = track.width - y - EDGE_BODY_M
    margin_right = y - EDGE_BODY_M
    if heading_deg > 0:
        margin_left -= _recovery_cost_m(heading_deg)
    else:
        margin_right -= _recovery_cost_m(heading_deg)
    return max(-_edge_limit_deg(margin_right), min(_edge_limit_deg(margin_left), angle_deg))


def steer_toward_lane(features: FeatureVector, current_lane: int, target_lane: int, track: Track) -> float:
    """Desired heading (deg) toward a lane center, capped."""
    error = (target_lane - current_lane) * track.lane_width - features.lane_offset
    return max(-EXPERT_STEER_CAP, min(EXPERT_STEER_CAP, EXPERT_STEER_GAIN * error))


@dataclass
class DemoRandomization:
    """Scene and action randomization used while collecting demonstrations.

    Beyond scene randomization, two ambiguity injections stand in for the
    variability of real demonstrations: when both adjacent lanes are viable
    escapes the executed change direction is a fair coin, and when a change
    is only marginally better than staying the choice to go at all is a
    coin too. Heading noise is heteroscedastic (larger near frontal
    traffic). Ticks with a critically small frontal gap run the rule-based
    lane keeper and are not recorded, mirroring how every evaluated policy
    is wrapped at that distance.
    """

    density_range: tuple[float, float] = (0.7, 1.2)
    noise_far_deg: float = 3.0
    noise_near_deg: float = 24.0
    noise_gap_m: float = 12.0
    max_heading_deg: float = 35.0
    marginal_gain_m: float = 5.0  # change gains in (this, switch margin] flip a coin
    commit_offset_m: float = 0.5  # past this offset a started change is carried through
    fallback_gap_m: float = 2.5


def _demo_target_lane(
    features: FeatureVector, lane: int, track: Track, rnd: DemoRandomization, rng
) -> int:
    """Expert decision plus the collection-time ambiguity coins.

    The coins only apply near a lane center; once a change is underway the
    stateless expert rule keeps steering it through on its own.
    """
    target = expert_target_lane(features, lane, track)
    if abs(features.lane_offset) > rnd.commit_offset_m:
        return target
    rel = target - lane
    if rel != 0:
        if _side_viable(features, -rel, lane, track, EXPERT_SWITCH_MARGIN) and rng.random() < 0.5:
            return lane - rel  # both sides viable: pick the mirror half the time
        return target
    # stay was chosen; a marginally better side becomes a coin flip
    if features.front_center < EXPERT_OPEN_ROAD_GAP:
        for side in (1, -1):
            if _side_viable(features, side, lane, track, rnd.marginal_gain_m):
                if rng.random() < 0.5:
                    return lane + side
                break
    return lane


def _run_demo_episode(
    track: Track, rnd: DemoRandomization, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray], bool]:
    """One randomized expert episode; returns (inputs, targets, collided)."""
    traffic_seed = int(rng.integers(2**31))
    ego_lane = int(rng.integers(track.num_lanes))
    density = float(rng.uniform(*rnd.density_range))
    episode_x: list[np.ndarray] = []
    episode_y: list[np.ndarray] = []
    sim = _build_scene(track, traffic_seed, density, ego_lane)
    max_ticks = int(round(EPISODE_TIMEOUT_S / sim.state.dt))
    for _tick in range(max_ticks):
        if detect_collision(sim.state, track):
            return episode_x, episode_y, True
        try:
            features = extract_features(sim.state, track)
        except OffTrackError:
            return episode_x, episode_y, True
        ego = sim.state.ego
        lane = track.lane_index(ego.y)
        if features.front_center < rnd.fallback_gap_m:
            speeds = center_lane_speeds(sim.state, track)
            v_mps, w = safe_controller(
                features, speeds, wrap_angle_deg(ego.heading_deg), features.lane_offset
            )
            sim.step(v_mps / KMH_TO_MPS, w)
        else:
            target_lane = _demo_target_lane(features, lane, track, rnd, rng)
            angle = steer_toward_lane(features, lane, target_lane, track)
            sigma = (
                rnd.noise_near_deg
                if features.front_center < rnd.noise_gap_m
                else rnd.noise_far_deg
            )
            executed = angle + float(rng.normal(0.0, sigma))
            executed = max(-rnd.max_heading_deg, min(rnd.max_heading_deg, executed))
            executed = edge_guarded_angle(executed, ego.y, ego.heading_deg, track)
            target = HeadingTarget.from_angle_deg(executed)
            episode_x.append(features.normalized(track))
            episode_y.append(np.array([target.cos_component, target.sin_component]))
            w = feedback_heading_controller(ego.heading_deg, executed)
            sim.step(CRUISE_SPEED_KMH, w)
        if sim.state.ego.x >= track.goal:
            break
    return episode_x, episode_y, False


DRIVING_EPISODES = 240  # the driving recipe's episodes; the rest of it is PolicyTrainConfig()


def collect_demonstrations(
    num_episodes: int, randomization: DemoRandomization | None = None, seed: int = 0
) -> TrainingSet:
    """Run the scripted expert in randomized scenes and record (features -> heading).

    Episodes that end in a collision are dropped entirely; raises
    `CollectionError` when nothing survives. Ticks handled by the
    critical-distance fallback are executed but not recorded.
    """
    rnd = randomization or DemoRandomization()
    track = Track()
    rng = np.random.default_rng(seed)
    inputs: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    kept = 0
    for _ in range(num_episodes):
        episode_x, episode_y, collided = _run_demo_episode(track, rnd, rng)
        if not collided and episode_x:
            inputs.extend(episode_x)
            targets.extend(episode_y)
            kept += 1
    if kept == 0:
        raise CollectionError(f"all {num_episodes} demonstration episodes were discarded")
    return TrainingSet(np.array(inputs), np.array(targets))


def count_expert_collisions(
    num_episodes: int, randomization: DemoRandomization | None = None, seed: int = 0
) -> int:
    """Number of randomized expert episodes that would be discarded."""
    rnd = randomization or DemoRandomization()
    track = Track()
    rng = np.random.default_rng(seed)
    return sum(_run_demo_episode(track, rnd, rng)[2] for _ in range(num_episodes))


def learned_policy(
    model: MdnModel | MlpNetwork,
    features: FeatureVector,
    track: Track,
    scored: uncertainty.UncertaintyReport | None = None,
) -> HeadingTarget:
    """Decode the network's heading prediction (MAP mixture for mixture models).

    `scored` is the report a gated policy already made for these features;
    its MAP mean is the heading, so the tick needs no second forward pass.
    """
    if scored is not None:
        mean = scored.map_mean
    elif isinstance(model, MdnModel):
        mean, _, _ = predict_map(model, features.normalized(track))
    else:
        mean = model.forward(features.normalized(track))
    return HeadingTarget(float(mean[0]), float(mean[1]))


# the bundle slot each policy drives with (safe mode needs no model)
_SLOT_FOR_KIND = {
    PolicyKind.UALFD: "mdn_k10",
    PolicyKind.UALFD2: "mdn_k10",
    PolicyKind.MDN_K10: "mdn_k10",
    PolicyKind.MDN_K1: "mdn_k1",
    PolicyKind.REGNET: "regnet",
    PolicyKind.SAFE_MODE: None,
}
DRIVING_INPUT_DIM = len(fields(FeatureVector))


@dataclass
class ModelBundle:
    mdn_k10: MdnModel | None = None
    mdn_k1: MdnModel | None = None
    regnet: MlpNetwork | None = None
    # per-epoch training loss of each slot, filled by `train_policy_models`
    loss_traces: dict[str, list[float]] = field(default_factory=dict, init=False, repr=False)

    def for_kind(self, kind: PolicyKind):
        slot = _SLOT_FOR_KIND[kind]
        model = getattr(self, slot) if slot else None
        if slot and model is None:
            raise ConfigError(f"policy {kind.value!r} needs a trained model")
        return model

    @staticmethod
    def _file_for(directory: str | Path, slot: str) -> Path:
        """A bundle directory holds one `driving_<slot>.bin` file per slot."""
        return Path(directory) / f"driving_{slot}.bin"

    def save(self, directory: str | Path) -> None:
        """Write each model the bundle holds to its file in `directory`."""
        for slot in ("mdn_k10", "mdn_k1", "regnet"):
            model = getattr(self, slot)
            if isinstance(model, MdnModel):
                model.save(self._file_for(directory, slot))
            elif model is not None:
                save_model(self._file_for(directory, slot), model)

    @classmethod
    def load(cls, directory: str | Path, kinds: list[PolicyKind]) -> "ModelBundle":
        """Read only the files the policies in `kinds` drive with. A file of
        the wrong kind or input width raises `ConfigError` naming it."""
        models = {}
        for slot in sorted({_SLOT_FOR_KIND[k] for k in kinds} - {None}):
            path = cls._file_for(directory, slot)
            if slot == "regnet":
                net, head = load_model(path)
                if head is not None:
                    raise ConfigError(f"{path}: file holds a mixture model, not a regression network")
                models[slot] = net
            else:
                models[slot] = load_mdn(path)
                net = models[slot].net
            if net.config.input_dim != DRIVING_INPUT_DIM:
                raise ConfigError(
                    f"{path}: model takes {net.config.input_dim} inputs, "
                    f"driving needs {DRIVING_INPUT_DIM}"
                )
        return cls(**models)


@dataclass
class EpisodeMetrics:
    collision: bool
    min_dist_to_cars: float
    lane_dev_dist_mean_mm: float
    lane_dev_deg_mean: float
    elapsed_time: float
    num_lane_changes: int
    mode_switch_count: int
    safe_mode_fraction: float
    reached_goal: bool


REPLAY_COLUMNS = [
    "time",
    "x",
    "y",
    "heading_deg",
    "speed_kmh",
    "mode",
    "uncertainty",
    "front_left",
    "front_center",
    "front_right",
    "back_left",
    "back_center",
    "back_right",
    "lane_offset",
]


def count_lane_changes(lanes: list[int]) -> int:
    """Changes of the nearest-lane index that persist for at least
    `LANE_CHANGE_PERSIST_TICKS` ticks."""
    if not lanes:
        return 0
    stable = lanes[0]
    count = 0
    run_val: int | None = None
    run_len = 0
    for v in lanes[1:]:
        if v == run_val:
            run_len += 1
        else:
            run_val, run_len = v, 1
        if run_val != stable and run_len >= LANE_CHANGE_PERSIST_TICKS:
            stable = run_val
            count += 1
    return count


def _build_scene(track: Track, traffic_seed: int, density: float, ego_lane: int) -> Simulation:
    spec = TrafficSpec(density=density, seed=traffic_seed)
    clear = [KeepClear(x=track.start, lane=ego_lane, half_length=25.0)]
    traffic = spawn_traffic(spec, track, keep_clear=clear)
    ego = CarState(
        x=track.start,
        y=track.lane_center(ego_lane),
        heading_deg=0.0,
        speed_kmh=CRUISE_SPEED_KMH,
    )
    return Simulation(track, ego, traffic)


def run_episode(
    kind: PolicyKind,
    scene_seed: int,
    models: ModelBundle,
    *,
    switch: SwitchConfig | None = None,
    density: float = 1.0,
    timeout_s: float = EPISODE_TIMEOUT_S,
) -> tuple[EpisodeMetrics, list[list]]:
    """Simulate one seeded episode from lane 2 of the default track; returns
    metrics and per-tick replay rows.

    `ualfd` gates on the explained channel and `ualfd2` on the unexplained
    one, each against its own threshold in `switch`; the replay's
    `uncertainty` column holds that channel's sum (NaN for other policies).
    """
    track = Track()
    switch = switch or SwitchConfig()
    model = models.for_kind(kind)
    gated = kind in (PolicyKind.UALFD, PolicyKind.UALFD2)
    if gated and not isinstance(model, MdnModel):
        raise ConfigError("uncertainty-gated policies require a mixture model")
    explained = kind is PolicyKind.UALFD
    log_threshold = (
        switch.log_explained_threshold if explained else switch.log_unexplained_threshold
    )
    switch_distance = (
        switch.immediate_switch_distance_ualfd
        if gated
        else switch.immediate_switch_distance_others
    )

    sim = _build_scene(track, scene_seed, density, 2)
    max_ticks = int(round(timeout_s / sim.state.dt))
    collision = False
    reached = False
    min_dist = math.inf
    abs_offsets: list[float] = []
    abs_headings: list[float] = []
    lane_seq: list[int] = []
    mode_seq: list[str] = []
    replay: list[list] = []

    for _tick in range(max_ticks):
        if detect_collision(sim.state, track):
            collision = True
            break
        try:
            features = extract_features(sim.state, track)
        except OffTrackError:
            collision = True
            break
        ego = sim.state.ego
        lane = track.lane_index(ego.y)
        theta_dev = wrap_angle_deg(ego.heading_deg)

        u_tick = math.nan
        scored = None
        if kind is PolicyKind.SAFE_MODE:
            mode = "safe"
        else:
            if gated:
                scored = uncertainty.report(model, features.normalized(track))
                u_tick = scored.explained_sum if explained else scored.unexplained_sum
            mode = decide_mode(
                u_tick if gated else None,
                features.front_center,
                switch_distance,
                log_threshold,
            )

        if mode == "safe":
            speeds = center_lane_speeds(sim.state, track)
            v_mps, w = safe_controller(features, speeds, theta_dev, features.lane_offset)
            v_kmh = v_mps / KMH_TO_MPS
        else:
            target = learned_policy(model, features, track, scored)
            w = feedback_heading_controller(ego.heading_deg, target.angle_deg())
            v_kmh = CRUISE_SPEED_KMH

        min_dist = min(min_dist, min_gap_to_cars(sim.state))
        abs_offsets.append(abs(features.lane_offset))
        abs_headings.append(abs(theta_dev))
        lane_seq.append(lane)
        mode_seq.append(mode)
        replay.append(
            [sim.state.time, ego.x, ego.y, ego.heading_deg, ego.speed_kmh, mode, u_tick]
            + list(features.as_array())
        )

        sim.step(v_kmh, w)
        if sim.state.ego.x >= track.goal:
            reached = True
            break

    switches = sum(1 for a, b in zip(mode_seq, mode_seq[1:]) if a != b)
    safe_fraction = (
        sum(1 for m in mode_seq if m == "safe") / len(mode_seq) if mode_seq else 0.0
    )
    metrics = EpisodeMetrics(
        collision=collision,
        min_dist_to_cars=min(min_dist, D_MAX) if math.isfinite(min_dist) else D_MAX,
        lane_dev_dist_mean_mm=1000.0 * float(np.mean(abs_offsets)) if abs_offsets else 0.0,
        lane_dev_deg_mean=float(np.mean(abs_headings)) if abs_headings else 0.0,
        elapsed_time=sim.state.time,
        num_lane_changes=count_lane_changes(lane_seq),
        mode_switch_count=switches,
        safe_mode_fraction=safe_fraction,
        reached_goal=reached,
    )
    return metrics, replay


METRICS_COLUMNS = [
    "policy",
    "density",
    "collision_ratio_pct",
    "min_dist_m",
    "lane_dev_mm",
    "lane_dev_deg",
    "elapsed_s",
    "lane_changes",
    "switch_count",
]


@dataclass
class SuiteRow:
    policy: str
    density: float
    collision_ratio_pct: float
    min_dist_m: float
    lane_dev_mm: float
    lane_dev_deg: float
    elapsed_s: float
    lane_changes: float
    switch_count: float
    safe_mode_fraction: float
    episodes: list[EpisodeMetrics] = field(default_factory=list)
    replays: list[list[list]] = field(default_factory=list)  # per seed, when kept


def _suite_episode(
    task: tuple[str, float, int], models: ModelBundle, keep_replays: bool
) -> tuple[EpisodeMetrics, list[list]]:
    kind_value, density, seed = task
    metrics, replay = run_episode(PolicyKind(kind_value), seed, models, density=density)
    return metrics, (replay if keep_replays else [])


# pool workers only: a serial suite must not keep its models alive after it returns
_WORKER_CONTEXT: dict = {}


def _worker_init(models: ModelBundle, keep_replays: bool) -> None:
    _WORKER_CONTEXT.update(models=models, keep_replays=keep_replays)


def _worker_episode(task: tuple[str, float, int]) -> tuple[EpisodeMetrics, list[list]]:
    return _suite_episode(task, **_WORKER_CONTEXT)


def evaluate_suite(
    policies: list[PolicyKind],
    num_seeds: int,
    density_levels: list[float],
    models: ModelBundle,
    *,
    seed_base: int = 0,
    jobs: int = 1,
    keep_replays: bool = False,
) -> list[SuiteRow]:
    """Per-policy, per-density means of episode metrics over seeded episodes.

    Each episode is `run_episode` with the default `SwitchConfig` and
    timeout, so each gated policy reads its own channel.

    With `jobs` > 1 episodes run in a process pool; results are merged in
    task order, so the output is identical to a serial run. `keep_replays`
    keeps each episode's replay rows in `SuiteRow.replays`, in seed order.
    """
    if num_seeds < 1:
        raise ConfigError("need at least one seed")
    tasks = [
        (kind.value, density, seed_base + s)
        for density in density_levels
        for kind in policies
        for s in range(num_seeds)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_worker_init,
            initargs=(models, keep_replays),
        ) as pool:
            results = list(pool.map(_worker_episode, tasks, chunksize=4))
    else:
        results = [_suite_episode(t, models, keep_replays) for t in tasks]

    rows = []
    index = 0
    for density in density_levels:
        for kind in policies:
            chunk = results[index : index + num_seeds]
            index += num_seeds
            episodes = [metrics for metrics, _ in chunk]
            rows.append(
                SuiteRow(
                    policy=kind.value,
                    density=density,
                    collision_ratio_pct=float(100.0 * np.mean([m.collision for m in episodes])),
                    min_dist_m=float(np.mean([m.min_dist_to_cars for m in episodes])),
                    lane_dev_mm=float(np.mean([m.lane_dev_dist_mean_mm for m in episodes])),
                    lane_dev_deg=float(np.mean([m.lane_dev_deg_mean for m in episodes])),
                    elapsed_s=float(np.mean([m.elapsed_time for m in episodes])),
                    lane_changes=float(np.mean([m.num_lane_changes for m in episodes])),
                    switch_count=float(np.mean([m.mode_switch_count for m in episodes])),
                    safe_mode_fraction=float(
                        np.mean([m.safe_mode_fraction for m in episodes])
                    ),
                    episodes=episodes,
                    replays=[replay for _, replay in chunk] if keep_replays else [],
                )
            )
    return rows


def write_metrics_csv(rows: list[SuiteRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_COLUMNS)
        for r in rows:
            w.writerow(
                [
                    r.policy,
                    repr(float(r.density)),
                    repr(float(r.collision_ratio_pct)),
                    repr(float(r.min_dist_m)),
                    repr(float(r.lane_dev_mm)),
                    repr(float(r.lane_dev_deg)),
                    repr(float(r.elapsed_s)),
                    repr(float(r.lane_changes)),
                    repr(float(r.switch_count)),
                ]
            )


def write_replay_csv(replay: list[list], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPLAY_COLUMNS)
        for row in replay:
            w.writerow([x if isinstance(x, str) else repr(float(x)) for x in row])


def train_policy_models(
    demos: TrainingSet, cfg: PolicyTrainConfig | None = None, seed: int = 0
) -> ModelBundle:
    """Train the three learned policies (K=10 mixture, K=1 density, regression);
    the bundle's `loss_traces` hold their per-epoch NLL, NLL and squared error."""
    cfg = cfg or PolicyTrainConfig()
    schedule = cfg.schedule()
    input_dim = demos.inputs.shape[1]
    out_dim = demos.targets.shape[1]

    mdn_k10 = cfg.fresh_mdn(input_dim, out_dim, seed)
    k10_trace = train_mdn(mdn_k10, demos, schedule, seed=seed)
    mdn_k1 = replace(cfg, num_mixtures=1).fresh_mdn(input_dim, out_dim, seed + 1)
    k1_trace = train_mdn(mdn_k1, demos, schedule, seed=seed + 1)

    regnet = init_mlp(
        MlpConfig(
            input_dim=input_dim,
            hidden_dims=list(cfg.hidden_dims),
            output_dim=out_dim,
            dropout_keep_prob=cfg.dropout_keep_prob,
            weight_decay=cfg.weight_decay,
            seed=seed + 2,
        )
    )
    regnet_trace = train_network(
        regnet,
        demos.inputs,
        demos.targets,
        mse_loss,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        optimizer=Optimizer(learning_rate=cfg.learning_rate, max_grad_norm=cfg.max_grad_norm),
        seed=seed + 2,
    )
    bundle = ModelBundle(mdn_k10=mdn_k10, mdn_k1=mdn_k1, regnet=regnet)
    bundle.loss_traces = {"mdn_k10": k10_trace, "mdn_k1": k1_trace, "regnet": regnet_trace}
    return bundle
