"""The benchmark in bench/ drives the package through its public names.

bench/test_smoke.py runs it end to end but is slow and outside the default
test paths, so this runs every workload's set-up and one round at a small
size, under the per-layer trace, which looks up every function it wraps.
A deleted or renamed name the benchmark uses fails here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import workloads  # noqa: E402

N_SAMPLES = 20


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_on_the_public_api(name):
    cls = workloads.WORKLOADS[name]
    with layertrace.LayerTrace(workloads.CHANNELS) as trace:
        wl = cls(seed=1, n_samples=N_SAMPLES)
        meter = workloads.Meter(wl.window)
        wl.round(meter)
        quality = wl.quality(workloads.Meter())
    assert wl.setup_meter.failed == 0, wl.setup_meter.problems
    assert meter.attempted >= 1 and meter.failed == 0, meter.problems
    assert quality is not None
    assert trace.calls["encoder.encode"] >= 1
