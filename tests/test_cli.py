import csv
from pathlib import Path

import numpy as np
import pytest

from mdnuq import policy
from mdnuq.cli import main, read_config_file, resolve_config
from mdnuq.mdn import MdnConfig, build_mdn
from mdnuq.modelio import load_model
from mdnuq.nn import ConfigError


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
