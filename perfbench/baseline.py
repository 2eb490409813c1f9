"""Per-sample forward/backward cost at production widths, with plain perf_counter.

    python3 perfbench/baseline.py

Re-measures the single-sample numbers the ROADMAP quotes: bmmn and bae2
forward+backward and forward-only milliseconds (median of 20 after two
warm-up steps), and numpy pocketfft's share of 10 bae2 forward+backward
steps. Only `numpy.fft.rfft`/`irfft` are wrapped for the share. Writes
`.bench_out/baseline.json`; NOTES.md records the comparison.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import run  # pins the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from bioaffect import bmmn  # noqa: E402

import tracer  # noqa: E402

ROADMAP = {
    "bmmn_fwd_bwd_ms": 17.2, "bmmn_fwd_ms": 8.2,
    "bae2_fwd_bwd_ms": 63.9, "bae2_fwd_ms": 30.5, "bae2_fft_share": 0.50,
}
REPEATS = 20


def _step(model, inputs, targets) -> None:
    est, recons, originals = model.forward_graph(inputs)
    loss, _ = bmmn.total_loss_from_targets(est, targets, recons, originals, bmmn.LossWeights())
    loss.backward()


def _median_ms(fn) -> float:
    for _ in range(2):
        fn()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> int:
    rng = np.random.default_rng(0)
    targets = rng.uniform(0.0, 1.0, size=bmmn.N_OUTPUTS)
    out = {}
    for variant in ("bmmn", "bae2"):
        model = bmmn.BmmnModel(bmmn.ModelSpec(variant=bmmn.FusionVariant(variant)), seed=0)
        inputs = bmmn.toy_sample(model, rng)
        out[f"{variant}_fwd_bwd_ms"] = _median_ms(lambda: _step(model, inputs, targets))
        out[f"{variant}_fwd_ms"] = _median_ms(lambda: model.forward_graph(inputs))
        if variant == "bae2":
            tr = tracer.Tracer()
            tr.install(names={"tensor.fft"})
            try:
                start = perf_counter()
                for _ in range(10):
                    _step(model, inputs, targets)
                wall = perf_counter() - start
            finally:
                tr.uninstall()
            tracer.assert_unwrapped()
            out["bae2_fft_share"] = tr.totals()["tensor.fft"]["s"] / wall
            out["bae2_10_steps_s"] = wall
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for key, value in out.items():
        quoted = ROADMAP.get(key)
        ratio = f"  ({value / quoted:.2f}x the ROADMAP's {quoted})" if quoted else ""
        print(f"{key} {value:.4g}{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
