"""The acceptance battery: every exit criterion as a checkable function.

`run_suite` executes all criteria in order and returns structured results;
the pytest suite asserts the same functions one by one. Heavy artifacts
(trained scenario models, the driving bundle) are built once per context
and shared. All seeds are fixed, so reruns are reproducible; the oracles
here (sampling, finite differences, exhaustive scans) are written
independently of the library code paths they check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .mdn import GmmParams, MdnConfig, MdnModel, TrainSchedule, build_mdn, nll_loss, train_mdn, transform_batch
from .nn import MlpConfig, init_mlp
from .policy import (
    DemoRandomization,
    ModelBundle,
    PolicyKind,
    PolicyTrainConfig,
    SuiteRow,
    collect_demonstrations,
    evaluate_suite,
    train_policy_models,
)
from .sim import (
    CarState,
    D_MAX,
    KMH_TO_MPS,
    SimState,
    Simulation,
    Track,
    center_lane_speeds,
    extract_features,
    safe_controller,
    step_unicycle,
    wrap_angle_deg,
)
from .synthetic import ScenarioSpec, evaluate_grid, generate, quadrant_stats, target_fn
from .uncertainty import (
    explained_variance,
    mc_dropout_variance,
    report,
    total_variance,
    unexplained_variance,
)

NETWORK_TOPOLOGY = (256, 256)  # two hidden layers of 256, tanh
SCENARIO_EPOCHS = 400
SCENARIO_BATCH = 128
SCENARIO_WEIGHT_DECAY = 1e-6
# training-time dropout keeps the mixtures diverse, which the absence-of-data
# signature needs; the composition run trains without it because MAP-mean
# branch reconstruction wants noise-free convergence
SCENARIO_KEEP_PROB = {"heavy_noise": 0.8, "absence_of_data": 0.8, "composition": 1.0}

DRIVING_EPISODES = 240
DRIVING_SEEDS = 50
DRIVING_EPOCHS = 200
DRIVING_POLICIES = [
    PolicyKind.SAFE_MODE,
    PolicyKind.UALFD,
    PolicyKind.UALFD2,
    PolicyKind.MDN_K10,
    PolicyKind.MDN_K1,
    PolicyKind.REGNET,
]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    runtime_s: float


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{status} {r.name} [{r.runtime_s:.1f}s]: {r.detail}"


def _random_gmm(rng: np.random.Generator, max_k: int = 16, max_d: int = 8) -> GmmParams:
    k = int(rng.integers(1, max_k + 1))
    d = int(rng.integers(1, max_d + 1))
    w = rng.random(k) + 1e-3
    w /= w.sum()
    return GmmParams(
        weights=w,
        means=rng.normal(0.0, 3.0, size=(k, d)),
        variances=rng.uniform(0.05, 4.5, size=(k, d)),
    )


class AcceptanceContext:
    """Caches the trained artifacts the criteria share."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._scenario_models: dict[str, MdnModel] = {}
        self._grids: dict[str, object] = {}
        self._driving: tuple[ModelBundle, list[SuiteRow], float] | None = None

    def scenario_model(self, kind: str) -> MdnModel:
        if kind not in self._scenario_models:
            data = generate(ScenarioSpec(kind, seed=self.seed + 1))
            model = build_mdn(
                2,
                list(NETWORK_TOPOLOGY),
                10,
                1,
                dropout_keep_prob=SCENARIO_KEEP_PROB[kind],
                weight_decay=SCENARIO_WEIGHT_DECAY,
                seed=self.seed,
            )
            train_mdn(
                model,
                data,
                TrainSchedule(epochs=SCENARIO_EPOCHS, batch_size=SCENARIO_BATCH),
                seed=self.seed,
            )
            self._scenario_models[kind] = model
        return self._scenario_models[kind]

    def scenario_grid(self, kind: str):
        if kind not in self._grids:
            self._grids[kind] = evaluate_grid(self.scenario_model(kind), 40)
        return self._grids[kind]

    def driving(self) -> tuple[ModelBundle, list[SuiteRow], float]:
        if self._driving is None:
            t0 = time.perf_counter()
            demos = collect_demonstrations(
                DRIVING_EPISODES, DemoRandomization(), seed=self.seed + 100
            )
            bundle = train_policy_models(
                demos, PolicyTrainConfig(epochs=DRIVING_EPOCHS), seed=self.seed
            )
            rows = evaluate_suite(
                DRIVING_POLICIES, DRIVING_SEEDS, [1.0], bundle, seed_base=self.seed
            )
            self._driving = (bundle, rows, time.perf_counter() - t0)
        return self._driving

    def driving_row(self, kind: PolicyKind) -> SuiteRow:
        _, rows, _ = self.driving()
        return next(r for r in rows if r.policy == kind.value)


def criterion_total_variance_identity(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(ctx.seed + 11)
    worst = 0.0
    for _ in range(10_000):
        g = _random_gmm(rng)
        total = total_variance(g)
        parts = explained_variance(g) + unexplained_variance(g)
        worst = max(worst, float(np.max(np.abs(total - parts) / np.maximum(total, 1e-300))))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and elapsed < 5.0
    return CriterionResult(
        "1 law of total variance (10^4 mixtures)",
        passed,
        f"max relative gap {worst:.2e} (limit 1e-10), runtime {elapsed:.2f}s (limit 5s)",
        elapsed,
    )


def criterion_monte_carlo_oracle(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(ctx.seed + 12)
    worst = 0.0
    for _ in range(100):
        g = _random_gmm(rng)
        idx = rng.choice(g.num_mixtures, size=1_000_000, p=g.weights / g.weights.sum())
        samples = g.means[idx] + rng.standard_normal((1_000_000, g.output_dim)) * np.sqrt(
            g.variances[idx]
        )
        empirical = samples.var(axis=0)
        rel = np.max(np.abs(empirical - total_variance(g)) / total_variance(g))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    passed = worst <= 0.01 and elapsed < 60.0
    return CriterionResult(
        "2 Monte Carlo variance oracle (100 x 10^6 samples)",
        passed,
        f"max relative deviation {worst:.4f} (limit 0.01), runtime {elapsed:.1f}s (limit 60s)",
        elapsed,
    )


def criterion_gradient_check(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    cfg = MdnConfig(3, 2)
    net = init_mlp(MlpConfig(4, [7, 6], cfg.raw_dim, weight_decay=0.02, seed=ctx.seed + 3))
    rng = np.random.default_rng(ctx.seed + 13)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 2))

    def loss() -> float:
        val, _ = nll_loss(transform_batch(net.forward(x), cfg), y, cfg)
        val += 0.5 * net.config.weight_decay * sum(
            float((layer.weights**2).sum()) for layer in net.layers
        )
        return val

    raw = net.forward(x, mode="train")
    _, grad_raw = nll_loss(transform_batch(raw, cfg), y, cfg)
    analytic = [g for pair in net.backward(grad_raw) for g in pair]

    h = 1e-5
    worst = 0.0
    checked = 0
    pick = np.random.default_rng(ctx.seed + 14)
    for arr, grad in zip(net.parameter_arrays(), analytic):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in pick.choice(flat.size, size=min(30, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), 1e-6))
            checked += 1
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-4 and checked >= 100
    return CriterionResult(
        "3 pipeline gradients vs finite differences",
        passed,
        f"{checked} parameters checked, max relative error {worst:.2e} (limit 1e-4)",
        elapsed,
    )


def _quadrant_ratio(ctx: AcceptanceContext, kind: str, channel: str) -> tuple[float, float, float]:
    stats = quadrant_stats(ctx.scenario_grid(kind))
    q1 = stats["q1"][channel]
    others = float(np.mean([stats[q][channel] for q in ("q2", "q3", "q4")]))
    return q1, others, q1 / others


def criterion_heavy_noise_signature(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    q1, others, ratio = _quadrant_ratio(ctx, "heavy_noise", "unexplained")
    elapsed = time.perf_counter() - t0
    passed = ratio >= 3.0 and elapsed < 600.0
    return CriterionResult(
        "4 heavy-noise signature (unexplained variance)",
        passed,
        f"noisy-quadrant mean {q1:.4f} vs others {others:.4f}, ratio {ratio:.1f} "
        f"(limit 3.0), runtime {elapsed:.0f}s (limit 600s)",
        elapsed,
    )


def criterion_absence_signature(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    q1, others, ratio = _quadrant_ratio(ctx, "absence_of_data", "explained")
    elapsed = time.perf_counter() - t0
    passed = ratio >= 2.0
    return CriterionResult(
        "5 absence-of-data signature (explained variance)",
        passed,
        f"data-free-quadrant mean {q1:.4f} vs others {others:.4f}, ratio {ratio:.1f} (limit 2.0)",
        elapsed,
    )


def criterion_composition_signature(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    grid = ctx.scenario_grid("composition")
    expl = grid.scalar("explained")
    unexpl = grid.scalar("unexplained")
    median_ratio = float(np.median(unexpl) / np.median(expl))
    gap_sq = (2.0 * target_fn(grid.points)) ** 2
    corr = float(np.corrcoef(expl, gap_sq)[0, 1])
    elapsed = time.perf_counter() - t0
    passed = median_ratio <= 0.2 and corr >= 0.5
    return CriterionResult(
        "6 composition signature (explained tracks the branch gap)",
        passed,
        f"median unexplained/explained {median_ratio:.3f} (limit 0.2), "
        f"correlation with squared branch gap {corr:.3f} (limit 0.5)",
        elapsed,
    )


def criterion_k1_degeneracy(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    data = generate(ScenarioSpec("composition", seed=ctx.seed + 1))
    model = build_mdn(2, list(NETWORK_TOPOLOGY), 1, 1, seed=ctx.seed)
    train_mdn(model, data, TrainSchedule(epochs=60, batch_size=SCENARIO_BATCH), seed=ctx.seed)
    grid = evaluate_grid(model, 40)
    nonzero = int(np.count_nonzero(grid.explained))
    elapsed = time.perf_counter() - t0
    passed = nonzero == 0
    return CriterionResult(
        "7 single-mixture explained variance is exactly zero",
        passed,
        f"{nonzero} nonzero explained entries over {grid.explained.size} grid values (exact check)",
        elapsed,
    )


def time_single_vs_mc(
    model: MdnModel, x: np.ndarray, samples: int, reps: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Mean ms per call of one `report` and of one `mc_dropout_variance` with
    `samples` passes, each warmed up once and then timed over `reps` calls."""
    report(model, x)
    t0 = time.perf_counter()
    for _ in range(reps):
        report(model, x)
    single_ms = (time.perf_counter() - t0) / reps * 1e3
    mc_dropout_variance(model, x, samples, rng)
    t0 = time.perf_counter()
    for _ in range(reps):
        mc_dropout_variance(model, x, samples, rng)
    mc_ms = (time.perf_counter() - t0) / reps * 1e3
    return single_ms, mc_ms


def criterion_timing(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    model = build_mdn(
        2, list(NETWORK_TOPOLOGY), 10, 1, dropout_keep_prob=0.8, seed=ctx.seed
    )
    reps = 1000
    single_ms, mc_ms = time_single_vs_mc(
        model, np.zeros(2), 50, reps, np.random.default_rng(ctx.seed)
    )
    speedup = mc_ms / single_ms
    elapsed = time.perf_counter() - t0
    passed = speedup >= 10.0
    return CriterionResult(
        "8 single-pass uncertainty vs MC dropout timing",
        passed,
        f"single pass {single_ms:.3f} ms, MC dropout (T=50) {mc_ms:.2f} ms, "
        f"speedup {speedup:.1f}x (limit 10x) over {reps} calls",
        elapsed,
    )


def criterion_driving_safety(ctx: AcceptanceContext) -> CriterionResult:
    _, _, build_s = ctx.driving()
    safe = ctx.driving_row(PolicyKind.SAFE_MODE)
    ualfd = ctx.driving_row(PolicyKind.UALFD)
    mdn10 = ctx.driving_row(PolicyKind.MDN_K10)
    regnet = ctx.driving_row(PolicyKind.REGNET)
    zero_collisions = safe.collision_ratio_pct == 0.0 and ualfd.collision_ratio_pct == 0.0
    ordering = (
        ualfd.collision_ratio_pct <= mdn10.collision_ratio_pct <= regnet.collision_ratio_pct
    )
    faster = ualfd.elapsed_s <= safe.elapsed_s
    passed = zero_collisions and ordering and faster and build_s < 1200.0
    detail = (
        f"collisions% safe={safe.collision_ratio_pct:.1f} ualfd={ualfd.collision_ratio_pct:.1f} "
        f"mdn_k10={mdn10.collision_ratio_pct:.1f} regnet={regnet.collision_ratio_pct:.1f}; "
        f"elapsed ualfd {ualfd.elapsed_s:.2f}s vs safe {safe.elapsed_s:.2f}s; "
        f"pipeline {build_s:.0f}s (limit 1200s)"
    )
    return CriterionResult(
        f"9 driving safety ordering ({DRIVING_SEEDS} seeds)", passed, detail, build_s
    )


def criterion_channel_comparison(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    ualfd = ctx.driving_row(PolicyKind.UALFD)
    ualfd2 = ctx.driving_row(PolicyKind.UALFD2)
    frac_ok = ualfd2.safe_mode_fraction >= 2.0 * ualfd.safe_mode_fraction
    lanes_ok = ualfd2.lane_changes <= ualfd.lane_changes
    passed = frac_ok and lanes_ok
    detail = (
        f"safe-mode tick fraction ualfd2={ualfd2.safe_mode_fraction:.3f} vs "
        f"ualfd={ualfd.safe_mode_fraction:.3f} (need >= 2x); lane changes "
        f"ualfd2={ualfd2.lane_changes:.2f} vs ualfd={ualfd.lane_changes:.2f} (need <=)"
    )
    return CriterionResult(
        "10 unexplained-channel gating is more conservative",
        passed,
        detail,
        time.perf_counter() - t0,
    )


def _brute_force_features(ego: CarState, traffic: list[CarState], track: Track) -> list[float]:
    ego_lane = min(int(ego.y / track.lane_width), track.num_lanes - 1)
    values = []
    for rel in (1, 0, -1):  # left, center, right; frontal then rear below
        lane = ego_lane + rel
        front, back = D_MAX, D_MAX
        if 0 <= lane < track.num_lanes:
            for car in traffic:
                car_lane = min(int(car.y / track.lane_width), track.num_lanes - 1)
                if car_lane != lane:
                    continue
                gap = min(max(abs(car.x - ego.x) - 0.5 * (car.length + ego.length), 0.0), D_MAX)
                if car.x > ego.x:
                    front = min(front, gap)
                else:
                    back = min(back, gap)
        values.append((front, back))
    fronts = [v[0] for v in values]
    backs = [v[1] for v in values]
    return fronts + backs + [ego.y - (ego_lane + 0.5) * track.lane_width]


def criterion_simulator_conformance(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    track = Track()
    rng = np.random.default_rng(ctx.seed + 15)
    feature_mismatches = 0
    for _ in range(1000):
        ego = CarState(
            x=float(rng.uniform(0, 300)),
            y=track.lane_center(int(rng.integers(track.num_lanes)))
            + float(rng.uniform(-1.5, 1.5)),
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
        got = extract_features(SimState(ego=ego, traffic=traffic), track).as_array()
        want = np.array(_brute_force_features(ego, traffic, track))
        if not np.allclose(got, want, rtol=0, atol=1e-12):
            feature_mismatches += 1

    # constant-turn circle radius
    v_kmh, w = 90.0, 9.0
    radius = v_kmh * KMH_TO_MPS / math.radians(w)
    car = CarState(x=0.0, y=0.0, heading_deg=0.0, speed_kmh=v_kmh)
    pts = []
    for _ in range(2400):
        car = step_unicycle(car, v_kmh, w, 0.1)
        pts.append((car.x, car.y))
    pts = np.array(pts)
    cx = 0.5 * (pts[:, 0].min() + pts[:, 0].max())
    cy = 0.5 * (pts[:, 1].min() + pts[:, 1].max())
    radius_err = float(np.max(np.abs(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - radius)) / radius)

    # lane-keeping convergence inside 5 s from any offset up to half a lane
    worst_convergence = 0.0
    for offset in (-1.85, -0.9, 0.9, 1.85):
        ego = CarState(x=0.0, y=track.lane_center(2) + offset, speed_kmh=90.0)
        simu = Simulation(track, ego, [])
        converged_at = math.inf
        for _ in range(60):
            f = extract_features(simu.state, track)
            speeds = center_lane_speeds(simu.state, track)
            theta = wrap_angle_deg(simu.state.ego.heading_deg)
            v_mps, w_cmd = safe_controller(f, speeds, theta, f.lane_offset)
            simu.step(v_mps / KMH_TO_MPS, w_cmd)
            if abs(extract_features(simu.state, track).lane_offset) < 0.05:
                converged_at = min(converged_at, simu.state.time)
                break
        worst_convergence = max(worst_convergence, converged_at)

    elapsed = time.perf_counter() - t0
    passed = feature_mismatches == 0 and radius_err < 0.01 and worst_convergence <= 5.0
    return CriterionResult(
        "11 simulator conformance (features, circle, lane keeping)",
        passed,
        f"feature mismatches {feature_mismatches}/1000, circle radius error "
        f"{radius_err:.4%} (limit 1%), slowest lane-keeping convergence "
        f"{worst_convergence:.1f}s (limit 5s)",
        elapsed,
    )


ALL_CRITERIA = [
    criterion_total_variance_identity,
    criterion_monte_carlo_oracle,
    criterion_gradient_check,
    criterion_heavy_noise_signature,
    criterion_absence_signature,
    criterion_composition_signature,
    criterion_k1_degeneracy,
    criterion_timing,
    criterion_driving_safety,
    criterion_channel_comparison,
    criterion_simulator_conformance,
]


def run_suite(work_dir=None, seed: int = 0) -> list[CriterionResult]:
    ctx = AcceptanceContext(seed=seed)
    results = []
    for criterion in ALL_CRITERIA:
        results.append(criterion(ctx))
    if work_dir is not None:
        for kind, model in ctx._scenario_models.items():
            model.save(f"{work_dir}/scenario_{kind}.bin")
        if ctx._driving is not None:
            bundle = ctx._driving[0]
            bundle.mdn_k10.save(f"{work_dir}/driving_mdn_k10.bin")
            bundle.mdn_k1.save(f"{work_dir}/driving_mdn_k1.bin")
            from .modelio import save_model

            save_model(f"{work_dir}/driving_regnet.bin", bundle.regnet)
    return results
