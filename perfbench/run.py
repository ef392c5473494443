"""The mdnuq benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload drive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the repository root; the program is imported from `src/`. The last
stdout line is one JSON object: correct, attempted, failed, metrics. With
`--trace 0` the metrics are the end-to-end ones, measured with nothing
patched. With `--trace 1` the run repeats a fixed number of rounds twice,
untraced and then traced, and reports per-layer metrics from the spans; the
span file lands in `perfbench/out/`.

All load comes from this one process, one operation at a time, with numpy's
default BLAS threading. See README.md for what each workload does and why.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from oracle import Head, OracleNet, close, normalize_features, switching_rule
from tracing import Tracer, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODELS = HERE / "models"
OUT = HERE / "out"

SETUP_REPEATS = 11  # a set-up takes 10-90 ms, so one is at the mercy of a single preemption
SETTLE_S = 1.5  # longer than the ~1.2 s of slow first BLAS calls on an idle 2-core machine
RTOL, ATOL = 1e-8, 1e-14  # oracle agreement: float64 summation order differs, nothing else

QUERY_POOL = 256
QUERY_CALLS_PER_ROUND = 1000
GRID_RESOLUTION = 40
MC_SAMPLES = 50
MC_POINTS = 64
TRAIN_ROWS = 1024
TRAIN_EPOCHS = 20
TRAIN_BATCH = 128

TRACE_ROUNDS = {"drive": 1, "query": 2, "grid": 2, "mc_dropout": 1, "train": 2}


def import_program():
    """Put the checkout's `src/` first on the path and import the package from there."""
    src = ROOT / "src"
    if not (src / "mdnuq" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src / 'mdnuq'}; run from a full checkout")
    if not MODELS.is_dir():
        raise SystemExit(f"error: model directory {MODELS} is missing")
    sys.path.insert(0, str(src))
    import mdnuq  # noqa: F401
    import mdnuq.mdn
    import mdnuq.modelio
    import mdnuq.policy
    import mdnuq.sim
    import mdnuq.synthetic
    import mdnuq.uncertainty

    if Path(mdnuq.__file__).resolve().parent != (src / "mdnuq").resolve():
        raise SystemExit(f"error: imported mdnuq from {mdnuq.__file__}, not from {src}")
    return mdnuq


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def settle_blas(seconds: float = SETTLE_S) -> None:
    """Keep BLAS busy until its slow start has passed; see SETTLE_S."""
    a = np.full((128, 256), 0.5)
    b = np.full((256, 256), 0.25)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ b


def sub_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


class Workload:
    """One kind of operation. `setup` loads and warms up; `round(i)` runs the
    i-th fixed set of operations, timing each and checking its outputs."""

    name = ""
    work_unit = ""

    def __init__(self, mdnuq, seed: int):
        self.m = mdnuq
        self.seed = seed
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, i: int) -> list[tuple[int, float]]:
        """Returns (duration_ns, work units) per operation."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """End-of-run checks; returns lines to print."""
        return []


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return time.perf_counter_ns() - t0, out


class Drive(Workload):
    """Closed-loop episodes of all six policies at traffic density 1.0."""

    name = "drive"
    work_unit = "ticks"

    def setup(self) -> None:
        m = self.m
        bundle = m.policy.ModelBundle(
            mdn_k10=m.mdn.load_mdn(MODELS / "driving_mdn_k10.bin"),
            mdn_k1=m.mdn.load_mdn(MODELS / "driving_mdn_k1.bin"),
            regnet=m.modelio.load_model(MODELS / "driving_regnet.bin")[0],
        )
        self.bundle = bundle
        self.kinds = [m.policy.PolicyKind(v) for v in
                      ("safe_mode", "ualfd", "ualfd2", "mdn_k10", "mdn_k1", "regnet")]
        self.oracle = None
        self.switch = m.policy.SwitchConfig()
        for kind in self.kinds:
            m.policy.run_episode(kind, 0, bundle, density=1.0, timeout_s=0.5)
        self.collisions = {k.value: 0 for k in self.kinds}
        self.first = None

    def scene(self, i: int) -> int:
        return int(sub_rng(self.seed, i).integers(2**31))

    def round(self, i: int) -> list[tuple[int, float]]:
        scene = self.scene(i)
        ops = []
        for kind in self.kinds:
            ns, (metrics, replay) = timed(
                self.m.policy.run_episode, kind, scene, self.bundle, density=1.0
            )
            ops.append((ns, len(replay)))
            self.collisions[kind.value] += metrics.collision
            self._check_episode(kind, scene, replay)
            if self.first is None and kind.value == "ualfd":
                self.first = (kind, scene, metrics, replay)
        return ops

    def _check_episode(self, kind, scene: int, replay) -> None:
        if not replay:
            return
        sim, sw = self.m.sim, self.switch
        features = np.array([row[7:] for row in replay], dtype=np.float64)
        modes = [row[5] for row in replay]
        u = np.array([row[6] for row in replay], dtype=np.float64)
        if kind.value == "safe_mode":
            if any(mode != "safe" for mode in modes):
                self.fail(f"drive: safe_mode ran a learned tick in scene {scene}")
            return
        gated = kind.value in ("ualfd", "ualfd2")
        channel = "explained" if kind.value == "ualfd" else "unexplained"
        threshold = sw.log_explained_threshold if channel == "explained" else sw.log_unexplained_threshold
        distance = sw.immediate_switch_distance_ualfd if gated else sw.immediate_switch_distance_others
        if gated:
            if self.oracle is None:
                self.oracle = OracleNet.from_file(MODELS / "driving_mdn_k10.bin")
            x = normalize_features(features, sim.Track().lane_width, sim.D_MAX)
            _, explained, unexplained = self.oracle.split(x)
            want = (explained if channel == "explained" else unexplained).sum(axis=1)
            if not close(u, want, RTOL, ATOL):
                worst = float(np.max(np.abs(u - want) / np.abs(want)))
                self.fail(f"drive: {kind.value} uncertainty in scene {scene} off the oracle by {worst:.2e}")
        for t, mode in enumerate(modes):
            expect = switching_rule(u[t] if gated else math.nan, features[t, 1], distance, threshold)
            if mode != expect:
                self.fail(f"drive: {kind.value} scene {scene} tick {t} mode {mode}, rule gives {expect}")
                break

    def finish(self) -> list[str]:
        if self.first is not None:
            kind, scene, metrics, replay = self.first
            again, again_replay = self.m.policy.run_episode(kind, scene, self.bundle, density=1.0)
            if again != metrics or again_replay != replay:
                self.fail(f"drive: repeated {kind.value} episode in scene {scene} differs")
        # Collisions are printed, not checked: which policy collides depends on
        # the scenes a seed draws, and `ualfd` crashes in some scenes where
        # `mdn_k10` does not (scene 962273005; see CHANGES.md).
        return ["collisions " + " ".join(f"{k}={v}" for k, v in self.collisions.items())]


class Query(Workload):
    """Single-input uncertainty reports on held-out demonstration states."""

    name = "query"
    work_unit = "calls"

    def setup(self) -> None:
        self.model = self.m.mdn.load_mdn(MODELS / "driving_mdn_k10.bin")
        pool = np.load(MODELS / "heldout_demos.npz")["inputs"]
        pick = np.random.default_rng(self.seed).choice(len(pool), QUERY_POOL, replace=False)
        self.inputs = [np.array(row) for row in pool[pick]]
        report = self.m.uncertainty.report
        for x in self.inputs:
            report(self.model, x)
        self.expected = None

    def round(self, i: int) -> list[tuple[int, float]]:
        report, model, inputs = self.m.uncertainty.report, self.model, self.inputs
        n = len(inputs)
        idx = [(i * QUERY_CALLS_PER_ROUND + j) % n for j in range(QUERY_CALLS_PER_ROUND)]
        got = np.empty((QUERY_CALLS_PER_ROUND, 4, 2))
        map_index = np.empty(QUERY_CALLS_PER_ROUND, dtype=int)
        ops = []
        clock = time.perf_counter_ns
        for j, k in enumerate(idx):
            t0 = clock()
            rep = report(model, inputs[k])
            ops.append((clock() - t0, 1))
            got[j] = (rep.total_mean, rep.total_variance, rep.explained, rep.unexplained)
            map_index[j] = rep.map_index
        self._check(np.array(idx), got, map_index)
        return ops

    def _check(self, idx, got, map_index) -> None:
        if self.expected is None:
            net = OracleNet.from_file(MODELS / "driving_mdn_k10.bin")
            x = np.array(self.inputs)
            mean, explained, unexplained = net.split(x)
            self.expected = (mean, explained, unexplained, net.mixture(x)[0])
        mean, explained, unexplained, weights = (a[idx] for a in self.expected)
        total = got[:, 1]
        if not (close(got[:, 0], mean, RTOL, ATOL) and close(got[:, 2], explained, RTOL, ATOL)
                and close(got[:, 3], unexplained, RTOL, ATOL)):
            self.fail("query: report differs from the oracle")
        if not close(total, got[:, 2] + got[:, 3], 1e-12, 0.0):
            self.fail("query: total variance is not explained + unexplained")
        if np.any(weights[np.arange(len(idx)), map_index] < weights.max(axis=1) - 1e-12):
            self.fail("query: map_index is not the heaviest mixture")


class Grid(Workload):
    """Uncertainty grid over the heavy_noise scenario model."""

    name = "grid"
    work_unit = "cells"

    def setup(self) -> None:
        self.model = self.m.mdn.load_mdn(MODELS / "scenario_heavy_noise.bin")
        self.m.synthetic.evaluate_grid(self.model, 8)
        self.first = None

    def round(self, i: int) -> list[tuple[int, float]]:
        ns, grid = timed(self.m.synthetic.evaluate_grid, self.model, GRID_RESOLUTION)
        arrays = (grid.map_mean, grid.map_index, grid.total, grid.explained, grid.unexplained)
        if self.first is None:
            self.first = arrays
            self._check(grid)
        elif not all(np.array_equal(a, b) for a, b in zip(arrays, self.first)):
            self.fail("grid: a repeated grid differs from the first")
        return [(ns, len(grid.points))]

    def _check(self, grid) -> None:
        net = OracleNet.from_file(MODELS / "scenario_heavy_noise.bin")
        weights, means, _ = net.mixture(grid.points)
        _, explained, unexplained = net.split(grid.points)
        rows = np.arange(len(grid.points))
        if not (close(grid.explained, explained, RTOL, ATOL)
                and close(grid.unexplained, unexplained, RTOL, ATOL)
                and close(grid.total, explained + unexplained, RTOL, ATOL)
                and close(grid.map_mean, means[rows, grid.map_index], RTOL, ATOL)):
            self.fail("grid: cells differ from the oracle")
        if np.any(weights[rows, grid.map_index] < weights.max(axis=1) - 1e-12):
            self.fail("grid: map_index is not the heaviest mixture")


class McDropout(Workload):
    """Monte Carlo dropout variance, T=50 stochastic passes per call."""

    name = "mc_dropout"
    work_unit = "calls"

    def setup(self) -> None:
        self.model = self.m.mdn.load_mdn(MODELS / "scenario_heavy_noise.bin")
        half = self.m.synthetic.DOMAIN_HALF
        self.points = np.random.default_rng(self.seed).uniform(-half, half, size=(MC_POINTS, 2))
        rng = np.random.default_rng(0)
        for p in self.points[:10]:
            self.m.uncertainty.mc_dropout_variance(self.model, p, MC_SAMPLES, rng)

    def round(self, i: int) -> list[tuple[int, float]]:
        mc, model = self.m.uncertainty.mc_dropout_variance, self.model
        rng = sub_rng(self.seed, i)
        ops = []
        for p in self.points:
            ns, rep = timed(mc, model, p, MC_SAMPLES, rng)
            ops.append((ns, 1))
            v = rep.variance
            if v.shape != (1,) or not np.all(np.isfinite(v)) or np.any(v < 0):
                self.fail(f"mc_dropout: variance {v} at {p} is not finite and nonnegative")
        return ops


class Train(Workload):
    """Fresh K=10 driving MDNs trained by NLL on held-out demonstrations."""

    name = "train"
    work_unit = "sample-epochs"

    def setup(self) -> None:
        pool = np.load(MODELS / "heldout_demos.npz")
        self.pool = self.m.mdn.TrainingSet(pool["inputs"], pool["targets"])
        self.cfg = self.m.policy.PolicyTrainConfig()
        model, data, schedule = self._job(np.random.default_rng(0), 256, 1)
        self.m.mdn.train_mdn(model, data, schedule, seed=0)

    def _job(self, rng, rows: int, epochs: int):
        m, cfg = self.m, self.cfg
        pick = rng.choice(len(self.pool), rows, replace=False)
        data = m.mdn.TrainingSet(self.pool.inputs[pick], self.pool.targets[pick])
        model = m.mdn.build_mdn(
            data.inputs.shape[1], list(cfg.hidden_dims), cfg.num_mixtures, data.targets.shape[1],
            sigma_max=cfg.sigma_max, weight_decay=cfg.weight_decay, seed=int(rng.integers(2**31)),
        )
        schedule = m.mdn.TrainSchedule(
            epochs=epochs, batch_size=TRAIN_BATCH, learning_rate=cfg.learning_rate,
            max_grad_norm=cfg.max_grad_norm,
        )
        return model, data, schedule

    def round(self, i: int) -> list[tuple[int, float]]:
        rng = sub_rng(self.seed, i)
        model, data, schedule = self._job(rng, TRAIN_ROWS, TRAIN_EPOCHS)
        norms = np.hypot(data.targets[:, 0], data.targets[:, 1])
        if np.any(np.abs(norms - 1.0) > 1e-12):
            self.fail("train: a demonstration target is not of unit norm")
        if np.any(data.inputs[:, :6] < 0.0) or np.any(data.inputs[:, :6] > 1.0):
            self.fail("train: a normalized gap lies outside [0, 1]")
        head = Head(model.cfg.num_mixtures, model.cfg.output_dim, model.cfg.sigma_max,
                    model.cfg.nll_epsilon)

        def oracle_nll() -> float:
            net = OracleNet.from_arrays([(l.weights, l.biases) for l in model.net.layers], head)
            return net.nll(data.inputs, data.targets)

        before = oracle_nll()
        ns, trace = timed(self.m.mdn.train_mdn, model, data, schedule, seed=int(rng.integers(2**31)))
        after = oracle_nll()
        # Final < initial is not checked: the loss spikes, and on some seeds a
        # short run ends above its start (see CHANGES.md). The lowest epoch is.
        if not (np.all(np.isfinite(trace)) and math.isfinite(after) and min(trace) < before):
            self.fail(f"train: NLL from {before:.4f}, epoch means {min(trace):.4f}..{max(trace):.4f}")
        return [(ns, len(data) * TRAIN_EPOCHS)]


WORKLOADS = {w.name: w for w in (Drive, Query, Grid, McDropout, Train)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(wl: Workload, rounds=None, seconds: float = 0.0):
    """Whole rounds until `seconds` of wall time have passed, or exactly `rounds`.
    No operation is expected to raise; one that does ends the run without a result.
    Returns the operations' durations (ns), their total work and the round count."""
    durations = array("q")
    work = 0.0
    t0 = time.perf_counter()
    i = 0
    while (i < rounds) if rounds is not None else (time.perf_counter() - t0 < seconds):
        for ns, w in wl.round(i):
            durations.append(ns)
            work += w
        i += 1
    return durations, work, i


def measure(mdnuq, name: str, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS):
    wl = WORKLOADS[name](mdnuq, seed)
    setups = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    durations, work, rounds = run_rounds(wl, seconds=seconds)
    notes = wl.finish()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "work_per_s": (work / (sum(durations) * 1e-9) if durations else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e-6 if durations else 0.0, "ms"),
    }
    notes += [
        f"rounds {rounds}, operations {len(durations)}, work {work:g} {wl.work_unit}",
        "setup runs " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return wl, metrics, len(durations), notes


def trace_run(mdnuq, name: str, seed: int):
    rounds = TRACE_ROUNDS[name]
    plain = WORKLOADS[name](mdnuq, seed)
    plain.setup()
    t0 = time.perf_counter_ns()
    run_rounds(plain, rounds=rounds)
    plain_ns = time.perf_counter_ns() - t0

    wl = WORKLOADS[name](mdnuq, seed)
    with Tracer() as tracer:
        t0 = time.perf_counter_ns()
        wl.setup()
        t1 = time.perf_counter_ns()
        durations, _, _ = run_rounds(wl, rounds=rounds)
        t2 = time.perf_counter_ns()
    wl.errors += plain.errors
    metrics = per_layer(tracer.spans, t2 - t0)
    metrics["trace.wall_s"] = ((t2 - t0) * 1e-9, "s")
    metrics["trace.overhead_pct"] = (100.0 * ((t2 - t1) / plain_ns - 1.0), "%")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.csv"
    tracer.write(path)
    return wl, metrics, len(durations), [f"spans written to {path.relative_to(ROOT)}"]


def run_one(mdnuq, name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        wl, metrics, attempted, notes = trace_run(mdnuq, name, seed)
    else:
        wl, metrics, attempted, notes = measure(mdnuq, name, seed, seconds)
    for line in notes:
        print(f"# {name}: {line}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    for err in wl.errors:
        print(f"# {name}: CHECK FAILED: {err}", file=sys.stderr)
    print(f"# {name}: attempted {attempted}, failed 0, correct {not wl.errors}")
    return {
        "correct": not wl.errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    mdnuq = import_program()
    print(f"# nproc {os.cpu_count()}, BLAS threads {blas_threads()}, numpy {np.__version__}")
    t0 = time.perf_counter()
    settle_blas()
    print(f"# BLAS settle {time.perf_counter() - t0:.2f}s")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(mdnuq, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        for n, r in results.items():
            print(json.dumps({"workload": n, **r}))
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
