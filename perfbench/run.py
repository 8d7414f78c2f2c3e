"""Benchmark of the multitangent toolkit: certified direct evaluation, the
exact workbench and the rechecked workbench.

    python3 perfbench/run.py --workload eval-direct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from any directory; the program is imported from ``src`` next to this
directory.  Each run starts fresh interpreters (``worker.py``):

* ``--trace 0``: one worker measures set-up and the timed phase, then checks
  the outputs; two more workers repeat only the set-up, and ``setup_s`` is
  the median of the three.
* ``--trace 1``: one untraced worker runs as above and fixes the number of
  operations N; two traced workers then run the same N operations with
  spans on.  The layer metrics come from the first; the second must repeat
  every deterministic count exactly.

Every time reported is scaled to a reference speed of the host by
calibrations run next to the work (``worker.calibrate``).  The last line
of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 3
# Times are reported at a reference speed of the host: the speed at which
# worker.calibrate() takes CAL_REFERENCE_S, a round figure in the 0.8 to
# 1.6 ms it took on the 2-vCPU VM where the baseline was measured.  The
# host's speed drifts by up to half within a minute, in wall and in CPU time
# alike; the calibrations run next to the work follow it, and the ratio
# cancels it.  README.md, "Reference speed", has the details.
CAL_REFERENCE_S = 0.001


class BenchError(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    # byte code goes inside the checkout; hashing is fixed so that counts repeat
    env.update(PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, env=env, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not end in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  With ten samples or fewer, the
    maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def speed_scaled(out: dict) -> list[float]:
    """A worker's latencies at the reference speed: each one times
    CAL_REFERENCE_S over the median of the calibrations around it, which
    are the two that bracket it, one more on each side, and the timer's
    calibrations during it.  ``calibrations[i]`` ran just before operation
    i, and the last one after the last operation."""
    cals = out["calibrations"]
    return [
        latency * CAL_REFERENCE_S / statistics.median(cals[max(0, i - 1): i + 3] + within)
        for i, (latency, within) in enumerate(zip(out["latencies"], out["within"]))
    ]


def setup_scaled(worker_out: dict) -> float:
    """A worker's set-up time at the reference speed, by the median of the
    timer's calibrations during it and one just before and after it."""
    return worker_out["setup_s"] * CAL_REFERENCE_S / statistics.median(
        worker_out["setup_calibrations"]
    )


def summary(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics {name: (value, unit)} and a note per metric.
    Times are at the reference speed; the notes give the raw ones."""
    raw = main["latencies"]
    lat = speed_scaled(main)
    value, pct, beyond = tail(lat)
    n = len(lat)
    setup_values = [setup_scaled(w) for w in setups]
    speed = CAL_REFERENCE_S / statistics.median(main["calibrations"])
    metrics = {
        "setup_s": (statistics.median(setup_values), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "fail_ratio": (len(main["failures"]) / n, "ratio"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": "median of " + " ".join(f"{s:.3f}" for s in setup_values)
        + "; raw " + " ".join(f"{w['setup_s']:.3f}" for w in setups),
        "ops_per_s": f"{n} ops in {sum(lat):.3f} s; raw {sum(raw):.3f} s, "
        f"host at {speed:.3f} of the reference speed",
        "op_p50_ms": f"raw {statistics.median(raw) * 1e3:.3f}",
        "op_tail_ms": f"p{pct:.1f}, {beyond} of {n} samples beyond; raw {tail(raw)[0] * 1e3:.3f}",
        "fail_ratio": f"{len(main['failures'])} of {n}; checks took {main['check_s']:.1f} s",
    }
    return metrics, notes


def run_e2e(name: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    main = worker(["--mode", "e2e", *common], deadline)
    setups = [main]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(worker(["--mode", "setup"], deadline))
    return main, *summary(main, setups)


def run_trace(name: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    main = worker(["--mode", "e2e", *common], deadline)
    n = len(main["latencies"])
    traced = [
        worker(["--mode", "trace", *common, "--ops", str(n)], deadline) for _ in range(2)
    ]
    # self times at the reference speed: the set-up's by its calibrations,
    # the timed phase's by the median of all the phase's calibrations
    setup_speed = setup_scaled(traced[0]) / traced[0]["setup_s"]
    phase_speed = CAL_REFERENCE_S / statistics.median(
        traced[0]["calibrations"] + [c for within in traced[0]["within"] for c in within]
    )
    layers = {
        k: (v * (setup_speed if k.startswith("setup.") or ".load." in k else phase_speed), u)
        if u == "s" else (v, u)
        for k, (v, u) in traced[0]["layers"].items()
    }
    mismatched = [
        k for k, (v, _) in layers.items()
        if k.endswith(spans.DETERMINISTIC_SUFFIXES) and traced[1]["layers"][k][0] != v
    ]
    untraced_rate = n / sum(speed_scaled(main))
    traced_rate = n / sum(speed_scaled(traced[0]))
    layers["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    layers["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    layers["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    failures = main["failures"] + [
        f for t in traced for f in t["failures"]
    ] + [[-1, "trace", f"count {k} differs between two traced runs"] for k in mismatched]
    return main, failures, layers


def report(name: str, seed: int, metrics: dict, failures: list, notes: dict) -> None:
    spec = WORKLOADS[name]
    print(f"== {name} (seed {seed}; {spec.loop})\n   {spec.mix}")
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<{width}}  {value:.6g} {unit}{note}")
    for index, what, reason in failures:
        print(f"  FAILED #{index} {what}: {reason}")


def run_one(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Returns (attempted, failures, metrics) as printed in the JSON line."""
    if trace:
        main, failures, layers = run_trace(name, seed, seconds, deadline)
        report(name, seed, layers, failures, {})
        return len(main["latencies"]), failures, layers
    main, metrics, notes = run_e2e(name, seed, seconds, deadline)
    report(name, seed, metrics, main["failures"], notes)
    # fail_ratio is 0 when all is well; the JSON line carries it as failed/attempted
    del metrics["fail_ratio"]
    return len(main["latencies"]), main["failures"], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, help="default: the workload's default seed")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "multitangent" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    attempted, failed, metrics = 0, 0, {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            n, failures, values = run_one(name, seed, args.seconds, bool(args.trace), deadline)
            attempted += n
            failed += len({f[0] for f in failures})
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update(
                {prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
