import csv
import hashlib
import re
import shlex
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mdnuq import policy
from mdnuq import cli
from mdnuq.cli import COMMAND_KEYS, main, read_config_file, resolve_config
from mdnuq.mdn import MdnConfig, build_mdn
from mdnuq.modelio import load_model
from mdnuq.nn import ConfigError, MlpConfig, init_mlp
from mdnuq.policy import PolicyTrainConfig, collect_demonstrations, train_policy_models
from mdnuq.synthetic import SCENARIO_KINDS, scenario_recipe


def run_cli(*args) -> int:
    return main(list(args))


def run_dirs(root: Path) -> list[Path]:
    return sorted(p for p in root.iterdir() if p.is_dir())


TINY_TRAIN = [
    "--set", "train.hidden_dims=16,16",
    "--set", "train.epochs=40",
    "--set", "train.num_points=300",
    "--set", "train.batch_size=64",
]


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\ntrain.epochs = 7\ntrain.task = composition\n")
    values = read_config_file(cfg)
    assert values == {"train.epochs": 7, "train.task": "composition"}


def test_unknown_key_is_named_in_error():
    with pytest.raises(ConfigError) as err:
        resolve_config("train", {"train.bogus_knob": 1}, {})
    assert "train.bogus_knob" in str(err.value)


def test_cli_rejects_malformed_key(tmp_path, capsys):
    code = run_cli("--out-dir", str(tmp_path), "--set", "train.bogus=1", "train")
    assert code == 2
    assert "train.bogus" in capsys.readouterr().err


def test_train_writes_model_and_trace(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "train",
        "--set", "train.task=composition", *TINY_TRAIN,
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    assert (run_dir / "model.bin").exists()
    assert (run_dir / "config.txt").exists()
    with open(run_dir / "loss_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert float(rows[-1]["nll"]) < float(rows[0]["nll"])


def test_train_zero_epochs_equals_initialization(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "train",
        "--set", "train.task=composition",
        "--set", "train.hidden_dims=8,8",
        "--set", "train.epochs=0",
        "--set", "train.num_points=50",
        "--set", "train.seed=3",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    net, mdn_cfg = load_model(run_dir / "model.bin")
    fresh = build_mdn(2, [8, 8], 10, 1, dropout_keep_prob=0.8, weight_decay=1e-6, seed=3)
    for a, b in zip(net.parameter_arrays(), fresh.net.parameter_arrays()):
        assert np.array_equal(a, b)
    assert mdn_cfg == MdnConfig(10, 1, 5.0, 1e-6)


def test_train_outputs_are_byte_identical_across_runs(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(
            "--out-dir", str(tmp_path / sub), "train",
            "--set", "train.task=heavy_noise", *TINY_TRAIN,
        )
        assert code == 0
    (run_a,) = run_dirs(tmp_path / "a")
    (run_b,) = run_dirs(tmp_path / "b")
    for name in ("model.bin", "loss_trace.csv", "config.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


def test_grid_command_row_count_and_k1_zeros(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "train",
        "--set", "train.task=composition",
        "--set", "train.mixtures=1",
        *TINY_TRAIN,
    )
    assert code == 0
    (train_dir,) = run_dirs(tmp_path)
    code = run_cli(
        "--out-dir", str(tmp_path), "grid",
        "--set", f"grid.model={train_dir / 'model.bin'}",
        "--set", "grid.resolution=40",
    )
    assert code == 0
    grid_dir = [d for d in run_dirs(tmp_path) if d.name.endswith("grid")][0]
    with open(grid_dir / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1600
    assert all(float(r["explained"]) == 0.0 for r in rows)
    assert (grid_dir / "quadrants.csv").exists()


def test_grid_missing_model_fails(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "grid", "--set", "grid.model=/nonexistent.bin"
    )
    assert code != 0


def test_grid_refuses_truncated_model_file(tmp_path, capsys):
    path = tmp_path / "m.bin"
    build_mdn(2, [8], 3, 1, seed=0).save(path)
    path.write_bytes(path.read_bytes()[:-100])
    code = run_cli(
        "--out-dir", str(tmp_path / "runs"), "grid", "--set", f"grid.model={path}"
    )
    assert code == 2
    assert f"{path}: truncated model file" in capsys.readouterr().err


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_readme_scenario_line_builds_the_acceptance_model(tmp_path, monkeypatch, kind):
    # README's line sets only train.task; one epoch on both sides checks the
    # rest of the recipe, whose keep probability differs for composition
    from mdnuq import acceptance, synthetic

    monkeypatch.setattr(synthetic, "scenario_recipe", lambda k: replace(scenario_recipe(k), epochs=1))
    code = run_cli(
        "--out-dir", str(tmp_path), "train",
        "--set", f"train.task={kind}",
        "--set", "train.epochs=1",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    direct = tmp_path / "direct.bin"
    acceptance.AcceptanceContext(seed=0).scenario_model(kind).save(direct)
    assert (run_dir / "model.bin").read_bytes() == direct.read_bytes()


def test_readme_driving_line_builds_the_acceptance_bundle(tmp_path, monkeypatch):
    # README's line sets only train.task; epochs and episodes are lowered to
    # the same two values on both sides
    from mdnuq import acceptance

    code = run_cli(
        "--out-dir", str(tmp_path), "train",
        "--set", "train.task=driving",
        "--set", "train.epochs=2",
        "--set", "train.episodes=2",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    monkeypatch.setattr(acceptance, "PolicyTrainConfig", partial(PolicyTrainConfig, epochs=2))
    monkeypatch.setattr(acceptance, "DRIVING_EPISODES", 2)
    monkeypatch.setattr(acceptance, "DRIVING_SEEDS", 1)  # the bundle is compared, not its scores
    bundle, _, _ = acceptance.AcceptanceContext(seed=0).driving()
    direct = tmp_path / "direct"
    direct.mkdir()
    bundle.save(direct)
    for name in ("driving_mdn_k10.bin", "driving_mdn_k1.bin", "driving_regnet.bin"):
        assert sha256(run_dir / name) == sha256(direct / name), name


def test_config_txt_records_the_recipe_values_the_run_took(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "train",
        "--set", "train.task=composition",
        "--set", "train.epochs=1",
        "--set", "train.num_points=50",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    lines = (run_dir / "config.txt").read_text().splitlines()
    assert "train.batch_size = 128" in lines
    assert "train.keep_prob = 1.0" in lines


@pytest.mark.parametrize(
    "name, recipe",
    [
        ("driving_mdn_k10.bin", PolicyTrainConfig()),
        ("scenario_heavy_noise.bin", scenario_recipe("heavy_noise")),
    ],
    ids=["driving", "heavy_noise"],
)
def test_benchmark_models_match_the_recipes_that_rebuild_them(name, recipe):
    # README says `mdnuq train --set train.task=<task>` rebuilds these files;
    # a recipe changed without rebuilding them fails here
    net, head = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "models" / name)
    assert tuple(net.config.hidden_dims) == recipe.hidden_dims
    assert head.num_mixtures == recipe.num_mixtures
    assert head.sigma_max == recipe.sigma_max
    assert net.config.weight_decay == recipe.weight_decay
    assert net.config.dropout_keep_prob == recipe.dropout_keep_prob


def test_drive_safe_mode_and_unknown_policy(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "drive",
        "--set", "drive.policies=safe_mode",
        "--set", "drive.seeds=2",
        "--set", "drive.replays=0",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    with open(run_dir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["policy"] == "safe_mode"
    assert float(rows[0]["collision_ratio_pct"]) == 0.0

    code = run_cli(
        "--out-dir", str(tmp_path), "drive", "--set", "drive.policies=not_a_policy"
    )
    assert code != 0


def test_drive_writes_replays(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path), "drive",
        "--set", "drive.policies=safe_mode",
        "--set", "drive.seeds=1",
        "--set", "drive.replays=1",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    replays = list((run_dir / "replays").glob("*.csv"))
    assert len(replays) == 1
    header = replays[0].read_text().splitlines()[0]
    assert header.startswith("time,x,y,heading_deg,speed_kmh,mode,uncertainty")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_drive_simulates_each_episode_once(tmp_path, monkeypatch, jobs):
    calls, scenes = [], []
    original = policy.run_episode
    build_scene = policy._build_scene

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    def counting_scenes(*args):
        scenes.append(args)
        return build_scene(*args)

    monkeypatch.setattr(policy, "run_episode", counting)
    # every simulated episode builds its scene, whoever calls it
    monkeypatch.setattr(policy, "_build_scene", counting_scenes)
    code = run_cli(
        "--out-dir", str(tmp_path), "--jobs", jobs, "drive",
        "--set", "drive.policies=safe_mode",
        "--set", "drive.seeds=3",
        "--set", "drive.replays=1",
        "--set", "drive.densities=0.5",
    )
    assert code == 0
    if jobs == "1":  # pool workers count in their own processes
        assert len(calls) == 3
        assert len(scenes) == 3
    (run_dir,) = run_dirs(tmp_path)
    for s in range(3):
        _, replay = original(policy.PolicyKind.SAFE_MODE, s, policy.ModelBundle(), density=0.5)
        direct = tmp_path / "direct.csv"
        policy.write_replay_csv(replay, direct)
        written = run_dir / "replays" / f"safe_mode_d0.5_s{s}.csv"
        assert written.read_bytes() == direct.read_bytes()


def test_drive_rejects_mixture_file_as_regnet(tmp_path, capsys):
    # a mixture model's first two raw outputs are mixture logits, not (cos, sin)
    bundle_dir = tmp_path / "bundle"
    bundle_dir.mkdir()
    path = bundle_dir / "driving_regnet.bin"
    build_mdn(7, [8], 10, 2, seed=0).save(path)
    code = run_cli(
        "--out-dir", str(tmp_path / "runs"), "drive",
        "--set", "drive.policies=regnet",
        "--set", f"drive.models={bundle_dir}",
        "--set", "drive.seeds=1",
        "--set", "drive.replays=0",
    )
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy_name, slot, model",
    [
        ("ualfd", "mdn_k10", build_mdn(2, [8], 10, 1, seed=0)),
        ("regnet", "regnet", init_mlp(MlpConfig(input_dim=2, hidden_dims=[8], output_dim=2))),
    ],
)
def test_drive_refuses_model_of_wrong_input_width(tmp_path, capsys, policy_name, slot, model):
    # a 2-input scenario model under a driving name is refused before any
    # episode runs, with the file named, not at the first tick's forward pass
    bundle_dir = tmp_path / "bundle"
    bundle_dir.mkdir()
    path = bundle_dir / f"driving_{slot}.bin"
    policy.ModelBundle(**{slot: model}).save(bundle_dir)
    code = run_cli(
        "--out-dir", str(tmp_path / "runs"), "drive",
        "--set", f"drive.policies={policy_name}",
        "--set", f"drive.models={bundle_dir}",
        "--set", "drive.seeds=1",
        "--set", "drive.replays=0",
    )
    assert code == 2
    assert f"{path}: model takes 2 inputs, driving needs 7" in capsys.readouterr().err
    (run_dir,) = run_dirs(tmp_path / "runs")
    assert not (run_dir / "metrics.csv").exists()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_driving_train_bundle_drives_and_matches_the_recipe(tmp_path):
    code = run_cli(
        "--out-dir", str(tmp_path / "train"), "train",
        "--set", "train.task=driving",
        "--set", "train.episodes=2",
        "--set", "train.hidden_dims=8",
        "--set", "train.epochs=2",
    )
    assert code == 0
    (train_dir,) = run_dirs(tmp_path / "train")
    code = run_cli(
        "--out-dir", str(tmp_path / "drive"), "drive",
        "--set", "drive.policies=safe_mode,ualfd,ualfd2,mdn_k10,mdn_k1,regnet",
        "--set", f"drive.models={train_dir}",
        "--set", "drive.seeds=1",
        "--set", "drive.replays=1",
    )
    assert code == 0
    (drive_dir,) = run_dirs(tmp_path / "drive")
    with open(drive_dir / "metrics.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 6

    # the driving recipe called directly, with the same keys replaced
    demos = collect_demonstrations(2, seed=100)
    recipe = PolicyTrainConfig(hidden_dims=(8,), epochs=2)
    bundle = train_policy_models(demos, recipe, seed=0)
    direct = tmp_path / "direct"
    direct.mkdir()
    bundle.save(direct)
    cli._write_trace_csv(direct / "loss_trace.csv", bundle.loss_traces)
    names = ["driving_mdn_k10.bin", "driving_mdn_k1.bin", "driving_regnet.bin", "loss_trace.csv"]
    for name in names:
        assert sha256(train_dir / name) == sha256(direct / name), name
    with open(train_dir / "loss_trace.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def readme_commands() -> list[tuple[str, list[str]]]:
    """(command, --set items) of every `mdnuq ...` line in README's fenced blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] != ["mdnuq"]:
                continue
            command = next(t for t in tokens[1:] if t in COMMAND_KEYS)
            items = [tokens[i + 1] for i, t in enumerate(tokens) if t == "--set"]
            found.append((command, items))
    return found


def test_readme_commands_use_only_keys_their_command_accepts():
    commands = readme_commands()
    assert {c for c, _ in commands} == set(COMMAND_KEYS)
    for command, items in commands:
        overrides = dict(item.split("=", 1) for item in items)
        resolve_config(command, {}, overrides)


def test_bench_rejects_single_sample(tmp_path):
    model = build_mdn(2, [8], 2, 1, dropout_keep_prob=0.8, seed=0)
    path = tmp_path / "m.bin"
    model.save(path)
    code = run_cli(
        "--out-dir", str(tmp_path), "bench",
        "--set", f"bench.model={path}",
        "--set", "bench.samples=1",
        "--set", "bench.repetitions=3",
    )
    assert code == 2


def test_bench_reports_speedup(tmp_path):
    model = build_mdn(2, [16, 16], 3, 1, dropout_keep_prob=0.8, seed=0)
    path = tmp_path / "m.bin"
    model.save(path)
    code = run_cli(
        "--out-dir", str(tmp_path), "bench",
        "--set", f"bench.model={path}",
        "--set", "bench.samples=5",
        "--set", "bench.repetitions=20",
    )
    assert code == 0
    (run_dir,) = run_dirs(tmp_path)
    import json

    result = json.loads((run_dir / "timing.json").read_text())
    assert result["speedup"] > 1.0
    assert result["mc_samples"] == 5


def test_suite_command_reports_and_exit_code(tmp_path, monkeypatch):
    from mdnuq.acceptance import CriterionResult

    canned = [
        CriterionResult("1 demo criterion", True, "fine", 0.1),
        CriterionResult("2 other criterion", False, "broken", 0.2),
    ]
    monkeypatch.setattr("mdnuq.acceptance.run_suite", lambda run_dir: canned)
    code = run_cli("--out-dir", str(tmp_path), "suite")
    assert code == 1  # one canned failure
    (run_dir,) = run_dirs(tmp_path)
    with open(run_dir / "suite_results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["passed"] for r in rows] == ["1", "0"]

    monkeypatch.setattr("mdnuq.acceptance.run_suite", lambda run_dir: canned[:1])
    assert run_cli("--out-dir", str(tmp_path), "suite") == 0


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MDNUQ_OUT_DIR", str(tmp_path / "envroot"))
    code = run_cli(
        "drive",
        "--set", "drive.policies=safe_mode",
        "--set", "drive.seeds=1",
        "--set", "drive.replays=0",
        "--set", "drive.densities=0.4",
    )
    assert code == 0
    assert run_dirs(tmp_path / "envroot")


class KeyRecorder(dict):
    """A resolved config that records which keys a handler reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_config_key_is_read_by_its_command(tmp_path, monkeypatch):
    # a key its handler never reads is an option that changes nothing
    path = tmp_path / "m.bin"
    build_mdn(2, [8], 2, 1, dropout_keep_prob=0.8, seed=0).save(path)
    runs = {
        "train": [
            {"train.task": "composition", "train.hidden_dims": "8",
             "train.epochs": 1, "train.num_points": 50},
            # seed 0 collects from seed 100, whose two episodes both survive
            {"train.task": "driving", "train.hidden_dims": "8",
             "train.epochs": 0, "train.episodes": 2, "train.seed": 0},
        ],
        "grid": [{"grid.model": str(path), "grid.resolution": 3}],
        "drive": [{"drive.policies": "safe_mode", "drive.seeds": 1,
                   "drive.densities": "0.5", "drive.replays": 0}],
        "bench": [{"bench.model": str(path), "bench.samples": 2, "bench.repetitions": 2}],
        "suite": [{}],
    }
    assert runs.keys() == COMMAND_KEYS.keys()
    monkeypatch.setattr("mdnuq.acceptance.run_suite", lambda run_dir: [])
    for command, settings in runs.items():
        read: set[str] = set()
        for i, overrides in enumerate(settings):
            cfg = KeyRecorder(resolve_config(command, {}, overrides))
            run_dir = tmp_path / f"{command}-{i}"
            run_dir.mkdir()
            getattr(cli, f"cmd_{command}")(cfg, run_dir)
            read |= cfg.read
        assert read == set(COMMAND_KEYS[command]), command
