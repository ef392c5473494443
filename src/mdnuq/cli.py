"""Command-line entry point.

Subcommands: train, grid, drive, bench, suite. `train` runs
`synthetic.train_scenario_model` or `policy.train_policy_models`, and a train
key left unset takes the task's recipe value, which lives beside that code.
Options live in a flat key=value config file (dotted sections, e.g.
``train.epochs = 500``); command-line flags override file values, and
unknown keys are rejected by name. Every run writes into a fresh run-stamped directory under the output
root and echoes the resolved configuration there. Only the output root and
the worker count may come from the environment (MDNUQ_OUT_DIR, MDNUQ_JOBS).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np

from .mdn import PolicyTrainConfig, load_mdn
from .nn import ConfigError
from .policy import (
    DRIVING_EPISODES,
    ModelBundle,
    PolicyKind,
    collect_demonstrations,
    evaluate_suite,
    train_policy_models,
    write_metrics_csv,
    write_replay_csv,
)
from .synthetic import (
    SCENARIO_KINDS,
    ScenarioSpec,
    evaluate_grid,
    quadrant_stats,
    scenario_recipe,
    train_scenario_model,
    write_grid_csv,
    write_quadrant_csv,
)
from . import acceptance as acceptance_mod

# a train key left UNSET takes the task's recipe value; each recipe key names
# the PolicyTrainConfig field it replaces and the parser of its value
UNSET = "unset"
RECIPE_KEYS = {
    "train.mixtures": ("num_mixtures", int),
    "train.hidden_dims": ("hidden_dims", lambda v: tuple(int(d) for d in str(v).split(",") if d.strip())),
    "train.epochs": ("epochs", int),
    "train.batch_size": ("batch_size", int),
    "train.learning_rate": ("learning_rate", float),
    "train.weight_decay": ("weight_decay", float),
    "train.keep_prob": ("dropout_keep_prob", float),
    "train.sigma_max": ("sigma_max", float),
}

# every option each subcommand accepts, with its default (None = required)
COMMAND_KEYS: dict[str, dict[str, object]] = {
    "train": {
        "train.task": None,  # scenario name, or "driving"
        **dict.fromkeys(RECIPE_KEYS, UNSET),
        "train.num_points": UNSET,  # scenario only
        "train.episodes": UNSET,  # driving only
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
        "drive.models": "",  # bundle directory, as `mdnuq train` writes for driving
        "drive.replays": 1,
        "drive.seed_base": 0,
    },
    "bench": {
        "bench.model": None,
        "bench.samples": 50,
        "bench.repetitions": 1000,
    },
    "suite": {},
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
    if command == "train":
        # fill the unset keys, so config.txt records what the run trained with
        recipe, size_key, size = train_recipe(resolved)
        resolved.update({key: getattr(recipe, field) for key, (field, _) in RECIPE_KEYS.items()})
        resolved.update({"train.hidden_dims": ",".join(map(str, recipe.hidden_dims)), size_key: size})
    return resolved


def train_recipe(cfg: dict[str, object]) -> tuple[PolicyTrainConfig, str, int]:
    """The task's recipe with each set key replacing its field, and the task's
    data-size key with its value."""
    task = str(cfg["train.task"])
    if task == "driving":
        recipe, size_key, size = PolicyTrainConfig(), "train.episodes", DRIVING_EPISODES
    elif task in SCENARIO_KINDS:
        recipe, size_key, size = scenario_recipe(task), "train.num_points", ScenarioSpec.num_points
    else:
        raise ConfigError(f"unknown train.task {task!r}")
    given = {f: parse(cfg[k]) for k, (f, parse) in RECIPE_KEYS.items() if cfg[k] != UNSET}
    size = size if cfg[size_key] == UNSET else int(cfg[size_key])
    return replace(recipe, **given), size_key, size


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


def _write_trace_csv(path: Path, traces: dict[str, list[float]]) -> None:
    """One row per epoch, one column per named loss trace."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", *traces])
        for i, values in enumerate(zip(*traces.values())):
            w.writerow([i, *map(repr, values)])


def cmd_train(cfg: dict[str, object], run_dir: Path) -> None:
    task = str(cfg["train.task"])
    seed = int(cfg["train.seed"])
    recipe, _, size = train_recipe(cfg)
    if task == "driving":
        # the acceptance pipeline's path: demonstrations from seed + 100,
        # then the K=10, K=1 and regression models of one bundle
        demos = collect_demonstrations(size, seed=seed + 100)
        bundle = train_policy_models(demos, recipe, seed=seed)
        bundle.save(run_dir)
        traces = bundle.loss_traces
    else:
        model, trace = train_scenario_model(task, recipe, seed, size)
        model.save(run_dir / "model.bin")
        traces = {"nll": trace}
    _write_trace_csv(run_dir / "loss_trace.csv", traces)
    print(f"model files and loss_trace.csv written to {run_dir}")
    for name, trace in traces.items():
        if trace:
            print(f"{name} loss: {trace[0]:.6f} -> {trace[-1]:.6f} over {len(trace)} epochs")


def cmd_grid(cfg: dict[str, object], run_dir: Path) -> None:
    model = load_mdn(str(cfg["grid.model"]))
    grid = evaluate_grid(model, int(cfg["grid.resolution"]))
    write_grid_csv(grid, run_dir / "grid.csv")
    write_quadrant_csv(quadrant_stats(grid), run_dir / "quadrants.csv")
    print(f"grid written to {run_dir / 'grid.csv'} ({len(grid.points)} cells)")


def cmd_drive(cfg: dict[str, object], run_dir: Path, jobs: int = 1) -> None:
    policies = [PolicyKind(p.strip()) for p in str(cfg["drive.policies"]).split(",") if p.strip()]
    densities = [float(v) for v in str(cfg["drive.densities"]).split(",") if v.strip()]
    models_dir = str(cfg["drive.models"])
    bundle = ModelBundle.load(models_dir, policies) if models_dir else ModelBundle()
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
    model = load_mdn(str(cfg["bench.model"]))
    samples = int(cfg["bench.samples"])
    reps = int(cfg["bench.repetitions"])
    if samples < 2:
        raise ConfigError("bench.samples must be at least 2")
    if reps < 1:
        raise ConfigError("bench.repetitions must be positive")
    x = np.zeros(model.net.config.input_dim)
    single, mc = acceptance_mod.time_single_vs_mc(
        model, x, samples, reps, np.random.default_rng(0)
    )
    single_ms, mc_ms = float(single.mean()), float(mc.mean())

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
