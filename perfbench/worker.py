"""One benchmark process: set-up, the timed phase of one workload, and the
untimed checks.  ``run.py`` starts it in a fresh interpreter, so every cache
starts cold.  The last line of its output is one JSON object.

    python3 perfbench/worker.py --mode setup
    python3 perfbench/worker.py --mode e2e   --workload W --seed N --seconds S
    python3 perfbench/worker.py --mode trace --workload W --seed N --ops K
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import time
from math import gcd

perf_counter = time.perf_counter

CAL_BIG = 3**2000
# seconds between two calibrations from the timer signal
SAMPLE_INTERVAL = 0.1


def calibrate() -> float:
    """Time one fixed piece of pure-Python work of about a millisecond:
    integer arithmetic, dict stores and big-integer products, the kinds of
    work the program does.  The host's speed drifts by up to half within a
    minute; the ratio of this time to its reference (``run.py``) scales the
    work timed next to it.  Allocates one dict and no other object the
    garbage collector tracks, so it does not shift the program's collections.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    x = 1
    for i in range(1, 1800):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 511] = gcd(x, i) + table.get(i & 511, 0)
    n = CAL_BIG
    for _ in range(18):
        n = n * n % (CAL_BIG + 2)
    return perf_counter() - start


class Sampler:
    """Calibrations inside long calls into the program: a wall-clock timer
    signal runs ``calibrate`` every SAMPLE_INTERVAL seconds, between two
    bytecodes of whatever runs.  ``samples`` holds their times, ``spent``
    the total time spent in the handler, which is taken off every time
    measured across it."""

    def __enter__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self.calibrate())
        self.spent += perf_counter() - t0

    def calibrate(self) -> float:
        """``calibrate()`` less any handler run that interrupted it."""
        spent = self.spent
        took = calibrate()
        return took - (self.spent - spent)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_phase(calls, seconds: float | None, limit: int | None) -> dict:
    """Closed loop with one client: each call starts when the previous one
    has returned.  Stops after ``limit`` calls, or once ``seconds`` have
    passed, or when the calls run out.

    A calibration runs before each call and one after the last, so call i
    sits between ``calibrations`` i and i+1; ``within[i]`` holds the timer's
    calibrations during call i.  Latencies leave out the timer's handler."""
    latencies, results, errors, calibrations, within = [], [], {}, [], []
    with Sampler() as sampler:
        start = perf_counter()
        for i, call in enumerate(calls[:limit]):
            calibrations.append(sampler.calibrate())
            first, spent = len(sampler.samples), sampler.spent
            t0 = perf_counter()
            try:
                results.append(call())
            except Exception as exc:  # recorded as a failed operation
                results.append(None)
                errors[i] = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            latencies.append(t1 - t0 - (sampler.spent - spent))
            within.append(sampler.samples[first:])
            if seconds is not None and t1 - start >= seconds:
                break
        calibrations.append(sampler.calibrate())
    return {"latencies": latencies, "calibrations": calibrations, "within": within,
            "results": results, "errors": errors}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int, help="trace mode: number of operations to run")
    args = ap.parse_args(argv)

    # set-up is one call into the program: the timer's calibrations during it,
    # and one just before and one just after, give its speed
    with Sampler() as sampler:
        before = sampler.calibrate()
        t0 = perf_counter()
        import workloads

        workloads.import_program()
        if args.mode == "trace":
            import spans

            tracer = spans.Tracer()
            cached = spans.install(tracer)
        from multitangent.basis_table import MzvBasisTable

        MzvBasisTable.shared()
        setup_s = perf_counter() - t0 - sampler.spent
        after = sampler.calibrate()
    out: dict = {"setup_s": setup_s, "setup_calibrations": [before, *sampler.samples, after]}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    ops = workloads.generate(args.workload, args.seed, args.seconds or 0)
    calls = [workloads.prepare(op) for op in ops]
    if args.mode == "trace":
        mark, counts_at_mark = len(tracer.start), tracer.counts.copy()
        cache_before = spans.cache_stats(cached)
        phase = timed_phase(calls, None, args.ops)
        cache_after = spans.cache_stats(cached)
        out["layers"] = spans.layer_metrics(
            tracer, mark, counts_at_mark, cache_before, cache_after
        )
    else:
        seconds = args.seconds if workloads.WORKLOADS[args.workload].until_time else None
        phase = timed_phase(calls, seconds, None)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = phase.pop("results")
    failures = phase.pop("errors")
    out.update(phase)
    if args.mode == "e2e":
        t1 = perf_counter()
        for i, reason in workloads.check(ops[: len(results)], results, args.seed).items():
            failures.setdefault(i, reason)
        out["check_s"] = perf_counter() - t1
    out["failures"] = [
        [i, workloads.describe(ops[i]), reason] for i, reason in sorted(failures.items())
    ]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
