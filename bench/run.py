"""Benchmark for the `mvh` package, measured from outside through its public API.

    python3 bench/run.py --workload encoder_train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is imported from `src/`; if it
is missing the benchmark exits with code 2 and prints no result.

Each run builds its workload from `--seed` several times (set-up), then
runs whole rounds of the workload until `--seconds` have passed. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it measures
half the time untraced and half with every public function of each layer
wrapped (see layertrace.py), and reports the per-layer metrics. Every
timing is scaled to nominal host speed (see hostspeed.py). The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3          # set up at least this many times ...
SETUP_MIN_SECONDS = 2.0  # ... and until this much set-up time has passed
SPAN_SECONDS = ("encoder.relu", "encoder.pool", "encoder.loss", "encoder.fuse_views",
                "autodiff.adam", "autodiff.clip",
                "metrics.bleu_n", "metrics.rouge_l", "metrics.meteor_lite", "metrics.avg_auc",
                "metrics.score_generation")
SETUP_SPANS = ("corpus.generate_dataset", "corpus.split_dataset", "corpus.mine_concepts")
CONVS = ("encoder.conv0", "encoder.conv1", "encoder.conv2")


def per_layer_units():
    """{metric name: unit} for every metric a traced run reports."""
    from layertrace import OPS
    from mvh.attention import FUSION_SCHEMES

    units = {"encoder.encode.calls": "count", "encoder.encode.s": "s", "encoder.encode.self_s": "s"}
    units.update({f"{name}.s": "s" for name in CONVS + SPAN_SECONDS + SETUP_SPANS})
    units.update({"autodiff.backward.calls": "count", "autodiff.backward.s": "s",
                  "autodiff.tape_nodes": "count"})
    for name in ([f"autodiff.op.{op}" for op in OPS]
                 + [f"attention.fuse.{scheme}" for scheme in FUSION_SCHEMES]
                 + ["attention.visual_attend", "attention.concept_attend"]):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({"trace.overhead_samples_per_s": "1/s", "trace.overhead_pct": "%",
                  "step_ms.p90": "ms", "train_loss": "nats", "bleu4": "score",
                  "failed_frac": "ratio", "samples_per_s.wall": "1/s", "host.slowdown": "ratio"})
    return units


END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "step_ms.p50": "ms",
                    "peak_rss_mb": "MB", "avg_auc": "score"}


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    from mvh.autodiff import Tensor

    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "dtype": str(Tensor(0.0).data.dtype),
            "commit": git_commit(ROOT)}


def git_commit(root):
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seconds, meter, trace=None):
    """Run whole rounds until `seconds` have passed; returns the number of rounds.

    Every round must return the same summary, and under a trace make the same
    calls into every layer.
    """
    summaries, round_calls = [], []
    meter.calibrate()
    meter.close_window()  # the first window starts now
    t0 = perf_counter()
    while True:
        before = dict(trace.calls) if trace is not None else None
        summaries.append(workload.round(meter))
        meter.close_window()
        if trace is not None:
            round_calls.append({k: v - before.get(k, 0) for k, v in trace.calls.items()})
        if perf_counter() - t0 >= seconds:
            break
    meter.check(all(s == summaries[0] for s in summaries),
                f"rounds of one run disagree: {summaries}")
    meter.check(all(c == round_calls[0] for c in round_calls),
                "rounds of one run made different calls into the layers")
    return len(summaries)


def at_nominal_speed(meter):
    """(samples per second, step times in ms) on the nominal host of hostspeed.py.

    Each window's times are divided by the host slowdown measured in and
    around it, and the rate is the median of the windows' rates, so neither
    the host's drift nor a burst of other work on it moves the figures much.
    `attempted` and `failed` still count every step; with no step done the
    figures are zero.
    """
    if not meter.windows:
        return 0.0, [0.0]
    rates = [len(steps) / seconds * slow for seconds, steps, slow in meter.windows]
    steps = [1e3 * t / slow for _, window, slow in meter.windows for t in window]
    return statistics.median(rates), steps


def wall_rate(meter):
    """Samples per second of unscaled window time."""
    seconds = sum(w[0] for w in meter.windows)
    return sum(len(w[1]) for w in meter.windows) / seconds if seconds else 0.0


def median_slowdown(meter):
    return statistics.median([w[2] for w in meter.windows] or meter.slowdowns)


def run(workload_name, seed, seconds, traced, n_samples):
    import hostspeed
    import workloads
    from layertrace import LayerTrace

    cls = workloads.WORKLOADS[workload_name]
    problems = []
    trace = LayerTrace(workloads.CHANNELS) if traced else None
    # Each set-up time is scaled to the nominal host by the mean of the
    # slowdowns measured just before and after it and, for a set-up that
    # trains the encoder, during its training steps.
    setup_times = []
    setup_losses = []
    wall = 0.0
    before = hostspeed.slowdown()
    while len(setup_times) < SETUP_REPS or wall < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        wl = cls(seed, n_samples, trace)
        took = perf_counter() - t0 - wl.setup_meter.ref_seconds
        after = hostspeed.slowdown()
        slowdowns = [before, *wl.setup_meter.slowdowns, after]
        setup_times.append(took / statistics.mean(slowdowns))
        wall += took
        before = after
        problems += wl.setup_meter.problems
        setup_losses.append(wl.train_loss)
    if any(loss != setup_losses[0] for loss in setup_losses):
        problems.append(f"set-ups of one run disagree: {setup_losses}")

    meters = [workloads.Meter(wl.window) for _ in range(1 + traced)]
    measure(wl, seconds / 2 if traced else seconds, meters[0])
    sps, step_ms = at_nominal_speed(meters[0])
    if traced:
        with trace:
            rounds = measure(wl, seconds / 2, meters[1], trace)
        sps_traced, _ = at_nominal_speed(meters[1])
        slow = median_slowdown(meters[1])
    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    problems += [p for m in meters for p in m.problems]

    side = workloads.Meter()  # the quality pass is not part of the timed work
    quality = wl.quality(side)
    problems += side.problems
    if quality is None:
        problems.append("quality pass produced no scores")
    train_loss, bleu4, avg_auc = quality or (0.0, 0.0, 0.0)

    if traced:
        values = layer_metrics(trace, len(setup_times), rounds, slow, sps_traced - sps, sps)
        values.update(train_loss=train_loss, bleu4=bleu4, failed_frac=failed / max(1, attempted))
        values["samples_per_s.wall"] = wall_rate(meters[0])
        values["host.slowdown"] = median_slowdown(meters[0])
        values["step_ms.p90"] = statistics.quantiles(step_ms, n=10)[8] if len(step_ms) > 1 else step_ms[0]
    else:
        values = {"setup_s": statistics.median(setup_times), "samples_per_s": sps,
                  "step_ms.p50": statistics.median(step_ms),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "avg_auc": avg_auc}
    units = per_layer_units() if traced else END_TO_END_UNITS
    summary = {"workload": workload_name, "seed": seed, "samples": n_samples,
               "train_loss": train_loss, "bleu4": bleu4, "avg_auc": avg_auc,
               "windows": [len(m.windows) for m in meters],
               "slowdown": [median_slowdown(m) for m in meters],
               "wall_samples_per_s": [wall_rate(m) for m in meters], "problems": problems[:10]}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }, summary


def layer_metrics(trace, setups, rounds, slow, overhead_sps, sps_untraced):
    """Per-round busy seconds and call counts; set-up spans are per set-up.

    Busy seconds are scaled to the nominal host by `slow`, the traced half's
    median slowdown.
    """
    calls = trace.calls
    busy = {name: seconds / slow for name, seconds in trace.busy.items()}
    per_round = lambda table, name: table.get(name, 0) / rounds
    values = {}
    for name in per_layer_units():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = per_round(calls, base)
        elif kind == "s" and base in SETUP_SPANS:
            values[name] = busy.get(base, 0.0) / setups
        elif kind == "s":
            values[name] = per_round(busy, base)
    children = sum(per_round(busy, n) for n in CONVS + ("encoder.relu", "encoder.pool"))
    values["encoder.encode.self_s"] = per_round(busy, "encoder.encode") - children
    backward_calls = calls.get("autodiff.backward", 0)
    values["autodiff.tape_nodes"] = trace.tape_nodes / backward_calls if backward_calls else 0.0
    values["trace.overhead_samples_per_s"] = overhead_sps
    values["trace.overhead_pct"] = -100.0 * overhead_sps / sps_untraced
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="corpus size (default: the benchmark's fixed size)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvh" / "__init__.py").is_file():
        print(f"bench: no program to measure at {ROOT / 'src' / 'mvh'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the matrices are tiny, and a
    # fixed count keeps runs comparable.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    n_samples = args.samples or workloads.N_SAMPLES
    result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace), n_samples)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
