"""Rebuild the models and held-out inputs the benchmark loads.

Run from the repository root:

    python3 perfbench/build_models.py

It follows the acceptance pipeline's recipes (seed 0), so the K=10 driving
model is the one `SwitchConfig`'s thresholds were calibrated on:

- driving bundle: `collect_demonstrations(240, seed=100)`, then
  `train_policy_models` at 200 epochs -> mdn_k10, mdn_k1, regnet;
- scenario model: heavy_noise data (seed 1), K=10, two hidden layers of 256,
  keep probability 0.8, 400 epochs at batch 128;
- held-out demonstrations: `collect_demonstrations(8, seed=9000)`, never
  seen in training; the `query` and `train` workloads draw their inputs
  from this pool.

Takes about a quarter of an hour on two cores.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mdnuq import acceptance, modelio  # noqa: E402
from mdnuq.policy import (  # noqa: E402
    DemoRandomization,
    PolicyTrainConfig,
    collect_demonstrations,
    train_policy_models,
)

MODEL_DIR = HERE / "models"
HELDOUT_EPISODES = 8
HELDOUT_SEED = 9000


def build_heldout() -> int:
    demos = collect_demonstrations(HELDOUT_EPISODES, DemoRandomization(), seed=HELDOUT_SEED)
    np.savez(MODEL_DIR / "heldout_demos.npz", inputs=demos.inputs, targets=demos.targets)
    return len(demos)


def main() -> int:
    MODEL_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    rows = build_heldout()
    print(f"held-out demonstrations: {rows} rows [{time.perf_counter() - t0:.0f}s]", flush=True)

    ctx = acceptance.AcceptanceContext(seed=0)
    ctx.scenario_model("heavy_noise").save(MODEL_DIR / "scenario_heavy_noise.bin")
    print(f"scenario model done [{time.perf_counter() - t0:.0f}s]", flush=True)

    demos = collect_demonstrations(
        acceptance.DRIVING_EPISODES, DemoRandomization(), seed=ctx.seed + 100
    )
    print(f"demonstrations: {len(demos)} rows [{time.perf_counter() - t0:.0f}s]", flush=True)
    bundle = train_policy_models(
        demos, PolicyTrainConfig(epochs=acceptance.DRIVING_EPOCHS), seed=ctx.seed
    )
    bundle.mdn_k10.save(MODEL_DIR / "driving_mdn_k10.bin")
    bundle.mdn_k1.save(MODEL_DIR / "driving_mdn_k1.bin")
    modelio.save_model(MODEL_DIR / "driving_regnet.bin", bundle.regnet)
    print(f"driving bundle done [{time.perf_counter() - t0:.0f}s]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
