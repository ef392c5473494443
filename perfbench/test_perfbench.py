"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracle import OracleNet  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402

mdnuq = run.import_program()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name):
    wl, metrics, attempted, _ = run.measure(mdnuq, name, seed=3, seconds=0.01, setup_repeats=1)
    assert wl.errors == []
    assert attempted >= 1
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(v > 0 for v, _ in metrics.values())


def test_workloads_and_per_layer_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    units = {k: u for k, (_, u) in per_layer([], 1).items()}
    units.update({"trace.wall_s": "s", "trace.overhead_pct": "%"})
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == units


@pytest.fixture
def perturbed_report(monkeypatch):
    original = mdnuq.uncertainty.report

    def report(model, x):
        rep = original(model, x)
        rep.explained = rep.explained * (1.0 + 1e-6)
        return rep

    monkeypatch.setattr(mdnuq.uncertainty, "report", report)
    monkeypatch.setattr(mdnuq.synthetic, "report", report)


@pytest.mark.parametrize("name", ["query", "grid"])
def test_oracle_check_fails_on_perturbed_report(name, perturbed_report):
    wl = run.WORKLOADS[name](mdnuq, seed=3)
    wl.setup()
    wl.round(0)
    assert any("oracle" in e for e in wl.errors)


def test_trace_counts_forwards_per_learned_tick_and_per_cell():
    bundle = mdnuq.policy.ModelBundle(
        mdn_k10=mdnuq.mdn.load_mdn(run.MODELS / "driving_mdn_k10.bin"),
    )
    scenario = mdnuq.mdn.load_mdn(run.MODELS / "scenario_heavy_noise.bin")
    with Tracer() as tracer:
        for kind in ("ualfd", "mdn_k10"):
            mdnuq.policy.run_episode(mdnuq.policy.PolicyKind(kind), 5, bundle, timeout_s=2.0)
        mdnuq.synthetic.evaluate_grid(scenario, 5)
    assert mdnuq.policy.run_episode.__name__ == "run_episode"
    assert not hasattr(mdnuq.policy.run_episode, "__wrapped__")
    m = {k: v for k, (v, _) in per_layer(tracer.spans, 10**9).items()}
    assert m["policy.learned_ticks.ualfd"] == 20
    assert m["policy.forwards_per_learned_tick.ualfd"] == 2.0
    assert m["policy.learned_ticks.mdn_k10"] == 20
    assert m["policy.forwards_per_learned_tick.mdn_k10"] == 1.0
    assert m["nn.forward_eval.calls"] == 40 + 20 + 2 * 25
    assert m["synthetic.forwards_per_cell"] == 2.0
    assert m["sim.step.calls"] == 40
    assert m["synthetic.evaluate_grid.calls"] == 1


def test_bare_benchmark_directory_exits_nonzero_without_result():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        cmd = BENCHMARK["command"]
        proc = subprocess.run(
            [*cmd, "--workload", "query", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_split_matches_total_variance_identity():
    net = OracleNet.from_file(run.MODELS / "scenario_heavy_noise.bin")
    x = np.random.default_rng(0).uniform(-6, 6, size=(50, 2))
    weights, means, variances = net.mixture(x)
    mean, explained, unexplained = net.split(x)
    second = np.einsum("nk,nkd->nd", weights, variances + means**2)
    assert np.allclose(explained + unexplained, second - mean**2, rtol=1e-9, atol=1e-12)
