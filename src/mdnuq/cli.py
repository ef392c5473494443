"""Command-line entry point.

Subcommands: train, grid, drive, bench, suite. Options live in a flat
key=value config file (dotted sections, e.g. ``train.epochs = 500``);
command-line flags override file values, and unknown keys are rejected by
name. Every run writes into a fresh run-stamped directory under the output
root and echoes the resolved configuration there. Only the output root and
the worker count may come from the environment (MDNUQ_OUT_DIR, MDNUQ_JOBS).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from .mdn import MdnModel, TrainSchedule, build_mdn, train_mdn
from .modelio import load_model, save_model
from .nn import ConfigError, MlpConfig, Optimizer, init_mlp, mse_loss, train_network
from .policy import (
    ModelBundle,
    PolicyKind,
    collect_demonstrations,
    evaluate_suite,
    write_metrics_csv,
    write_replay_csv,
)
from .synthetic import (
    SCENARIO_KINDS,
    ScenarioSpec,
    evaluate_grid,
    generate,
    quadrant_stats,
    write_grid_csv,
    write_quadrant_csv,
)
from . import acceptance as acceptance_mod

# every option each subcommand accepts, with its default (None = required)
COMMAND_KEYS: dict[str, dict[str, object]] = {
    "train": {
        "train.task": None,  # scenario name, or "driving"
        "train.model": "mdn",  # mdn | regnet (driving only)
        "train.mixtures": 10,
        "train.hidden_dims": "256,256",
        "train.epochs": 2000,
        "train.batch_size": 64,
        "train.learning_rate": 1e-3,
        "train.weight_decay": 1e-6,
        "train.keep_prob": 0.8,
        "train.sigma_max": 5.0,
        "train.nll_epsilon": 1e-6,
        "train.num_points": 4000,
        "train.episodes": 150,
        "train.seed": 0,
    },
    "grid": {
        "grid.model": None,
        "grid.resolution": 40,
    },
    "drive": {
        "drive.policies": "safe_mode",
        "drive.seeds": 50,
        "drive.densities": "1.0",
        "drive.mdn_k10": "",
        "drive.mdn_k1": "",
        "drive.regnet": "",
        "drive.replays": 1,
        "drive.seed_base": 0,
    },
    "bench": {
        "bench.model": None,
        "bench.samples": 50,
        "bench.repetitions": 1000,
    },
    "suite": {
        "suite.jobs": 1,
    },
}


def _parse_value(raw: str):
    text = raw.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_config_file(path: str | Path) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _parse_value(raw)
    return values


def resolve_config(
    command: str, file_values: dict[str, object], overrides: dict[str, object]
) -> dict[str, object]:
    allowed = COMMAND_KEYS[command]
    resolved = dict(allowed)
    for source in (file_values, overrides):
        for key, value in source.items():
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            resolved[key] = value
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return resolved


def make_run_dir(out_root: Path, command: str) -> Path:
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    base = out_root / f"run-{stamp}-{command}"
    run_dir = base
    counter = 1
    while run_dir.exists():
        run_dir = Path(f"{base}-{counter}")
        counter += 1
    run_dir.mkdir(parents=True)
    return run_dir


def echo_config(run_dir: Path, command: str, cfg: dict[str, object]) -> None:
    # no timestamps here: the echoed config stays byte-identical across reruns
    lines = [f"command = {command}"] + [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    (run_dir / "config.txt").write_text("\n".join(lines) + "\n")


def _hidden_dims(value: object) -> list[int]:
    if isinstance(value, int):
        return [value]
    dims = [int(v) for v in str(value).split(",") if v.strip()]
    if not dims:
        raise ConfigError("hidden_dims must name at least one layer")
    return dims


def _write_trace_csv(path: Path, trace: list[float], column: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", column])
        for i, v in enumerate(trace):
            w.writerow([i, repr(v)])


def cmd_train(cfg: dict[str, object], run_dir: Path) -> None:
    task = str(cfg["train.task"])
    seed = int(cfg["train.seed"])
    hidden = _hidden_dims(cfg["train.hidden_dims"])
    schedule = TrainSchedule(
        epochs=int(cfg["train.epochs"]),
        batch_size=int(cfg["train.batch_size"]),
        learning_rate=float(cfg["train.learning_rate"]),
    )
    if task in SCENARIO_KINDS:
        data = generate(ScenarioSpec(task, num_points=int(cfg["train.num_points"]), seed=seed + 1))
    elif task == "driving":
        data = collect_demonstrations(int(cfg["train.episodes"]), seed=seed + 1)
    else:
        raise ConfigError(f"unknown train.task {task!r}")

    model_kind = str(cfg["train.model"])
    if model_kind == "mdn":
        model = build_mdn(
            data.inputs.shape[1],
            hidden,
            int(cfg["train.mixtures"]),
            data.targets.shape[1],
            sigma_max=float(cfg["train.sigma_max"]),
            nll_epsilon=float(cfg["train.nll_epsilon"]),
            dropout_keep_prob=float(cfg["train.keep_prob"]),
            weight_decay=float(cfg["train.weight_decay"]),
            seed=seed,
        )
        trace = train_mdn(model, data, schedule, seed=seed)
        model.save(run_dir / "model.bin")
        _write_trace_csv(run_dir / "loss_trace.csv", trace, "nll")
    elif model_kind == "regnet":
        if task != "driving":
            raise ConfigError("train.model=regnet applies to the driving task only")
        net = init_mlp(
            MlpConfig(
                input_dim=data.inputs.shape[1],
                hidden_dims=hidden,
                output_dim=data.targets.shape[1],
                dropout_keep_prob=float(cfg["train.keep_prob"]),
                weight_decay=float(cfg["train.weight_decay"]),
                seed=seed,
            )
        )
        trace = train_network(
            net,
            data.inputs,
            data.targets,
            mse_loss,
            epochs=schedule.epochs,
            batch_size=schedule.batch_size,
            optimizer=Optimizer(learning_rate=schedule.learning_rate),
            seed=seed,
        )
        save_model(run_dir / "model.bin", net)
        _write_trace_csv(run_dir / "loss_trace.csv", trace, "mse")
    else:
        raise ConfigError(f"unknown train.model {model_kind!r}")
    print(f"model written to {run_dir / 'model.bin'}")
    if trace:
        print(f"loss: {trace[0]:.6f} -> {trace[-1]:.6f} over {len(trace)} epochs")


def _load_mdn_file(path: str) -> MdnModel:
    net, mdn_cfg = load_model(path)
    if mdn_cfg is None:
        raise ConfigError(f"{path}: expected a mixture model file")
    return MdnModel(net, mdn_cfg)


def cmd_grid(cfg: dict[str, object], run_dir: Path) -> None:
    model = _load_mdn_file(str(cfg["grid.model"]))
    grid = evaluate_grid(model, int(cfg["grid.resolution"]))
    write_grid_csv(grid, run_dir / "grid.csv")
    write_quadrant_csv(quadrant_stats(grid), run_dir / "quadrants.csv")
    print(f"grid written to {run_dir / 'grid.csv'} ({len(grid.points)} cells)")


def cmd_drive(cfg: dict[str, object], run_dir: Path, jobs: int = 1) -> None:
    policies = [PolicyKind(p.strip()) for p in str(cfg["drive.policies"]).split(",") if p.strip()]
    densities = [float(v) for v in str(cfg["drive.densities"]).split(",") if v.strip()]
    bundle = ModelBundle(
        mdn_k10=_load_mdn_file(str(cfg["drive.mdn_k10"])) if cfg["drive.mdn_k10"] else None,
        mdn_k1=_load_mdn_file(str(cfg["drive.mdn_k1"])) if cfg["drive.mdn_k1"] else None,
        regnet=load_model(str(cfg["drive.regnet"]))[0] if cfg["drive.regnet"] else None,
    )
    seeds = int(cfg["drive.seeds"])
    seed_base = int(cfg["drive.seed_base"])
    keep_replays = bool(int(cfg["drive.replays"]))
    rows = evaluate_suite(
        policies, seeds, densities, bundle,
        seed_base=seed_base, jobs=jobs, keep_replays=keep_replays,
    )
    write_metrics_csv(rows, run_dir / "metrics.csv")
    if keep_replays:
        replay_dir = run_dir / "replays"
        replay_dir.mkdir()
        for r in rows:
            for s, replay in enumerate(r.replays):
                name = f"{r.policy}_d{r.density:g}_s{seed_base + s}.csv"
                write_replay_csv(replay, replay_dir / name)
    print(f"metrics written to {run_dir / 'metrics.csv'}")
    for r in rows:
        print(
            f"  {r.policy:9s} density={r.density:g} collisions={r.collision_ratio_pct:.1f}% "
            f"elapsed={r.elapsed_s:.2f}s lane_changes={r.lane_changes:.2f}"
        )


def cmd_bench(cfg: dict[str, object], run_dir: Path) -> None:
    model = _load_mdn_file(str(cfg["bench.model"]))
    samples = int(cfg["bench.samples"])
    reps = int(cfg["bench.repetitions"])
    if samples < 2:
        raise ConfigError("bench.samples must be at least 2")
    if reps < 1:
        raise ConfigError("bench.repetitions must be positive")
    x = np.zeros(model.net.config.input_dim)
    single_ms, mc_ms = acceptance_mod.time_single_vs_mc(
        model, x, samples, reps, np.random.default_rng(0)
    )

    result = {
        "single_pass_ms": single_ms,
        "mc_dropout_ms": mc_ms,
        "mc_samples": samples,
        "repetitions": reps,
        "speedup": mc_ms / single_ms,
    }
    (run_dir / "timing.json").write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"single pass {single_ms:.3f} ms; MC dropout (T={samples}) {mc_ms:.3f} ms; "
        f"speedup {result['speedup']:.1f}x"
    )


def cmd_suite(cfg: dict[str, object], run_dir: Path) -> int:
    results = acceptance_mod.run_suite(run_dir)
    with open(run_dir / "suite_results.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["criterion", "passed", "detail"])
        for r in results:
            w.writerow([r.name, int(r.passed), r.detail])
    failures = [r for r in results if not r.passed]
    for r in results:
        print(acceptance_mod.format_result(r))
    print(f"{len(results) - len(failures)}/{len(results)} criteria passed")
    return 1 if failures else 0


def _add_common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # the same options are accepted before or after the subcommand; the
    # subparser copies suppress their defaults so they never clobber values
    # parsed at the top level
    hidden = argparse.SUPPRESS
    parser.add_argument(
        "--out-dir",
        default=os.environ.get("MDNUQ_OUT_DIR", "runs") if top_level else hidden,
        help="output root; each invocation creates a run-stamped directory inside",
    )
    parser.add_argument(
        "--config", default=None if top_level else hidden, help="key=value config file"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[] if top_level else hidden,
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=int(os.environ.get("MDNUQ_JOBS", "1")) if top_level else hidden,
        help="worker bound for parallel sections",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdnuq",
        description="Train mixture density models, run uncertainty benchmarks, "
        "and evaluate uncertainty-gated driving policies.",
    )
    _add_common_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "train": "train a model on a scenario or on driving demonstrations",
        "grid": "evaluate a trained model over the synthetic grid",
        "drive": "run seeded driving episodes and aggregate metrics",
        "bench": "time single-pass uncertainty vs MC dropout",
        "suite": "run the full acceptance battery",
    }
    for name, text in helps.items():
        _add_common_options(sub.add_parser(name, help=text), top_level=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        overrides = {}
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, raw = item.partition("=")
            overrides[key.strip()] = _parse_value(raw)
        cfg = resolve_config(args.command, file_values, overrides)
        run_dir = make_run_dir(Path(args.out_dir), args.command)
        echo_config(run_dir, args.command, cfg)
        if args.command == "drive":
            cmd_drive(cfg, run_dir, jobs=max(1, args.jobs))
            return 0
        handler = {"train": cmd_train, "grid": cmd_grid, "bench": cmd_bench}.get(
            args.command
        )
        if handler is not None:
            handler(cfg, run_dir)
            return 0
        return cmd_suite(cfg, run_dir)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface everything with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
