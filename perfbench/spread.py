"""Run one workload over several seeds and report, per end-to-end metric, the
median, the quartiles and the spread (quartile distance over median).

    python3 perfbench/spread.py --workload lab-exact --seeds 1-10 --out spread.json

Each seed is one ``run.py`` invocation with the settings of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="write the runs and the summary as JSON")
    args = ap.parse_args(argv)

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        summary[name] = spread([r["metrics"][name]["value"] for r in runs])
        summary[name]["bound"] = metric["bound"]
        s = summary[name]
        print(f"{name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.3f}  (bound {metric['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
