"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 qhcbench/spread.py --workload dense_state --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  A spread under a third
of the bound is steady enough to gate on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads((BENCH_DIR / "out" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        runs.append({"seed": seed, **result, "tail": details["tail"], "inputs": details["inputs"],
                     "environment": details["environment"]})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {values}", flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"]}
        flag = "ok" if spread < metric["bound"] / 3 else ("within bound" if spread <= metric["bound"] else "TOO WIDE")
        print(f"{name:14s} median {median:12.4f}  spread {spread:7.2%}  bound {metric['bound']:.2f}  {flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
