"""Traced timings at the baseline grid points of ROADMAP.md.

    python3 qhcbench/baseline_grid.py [--repeats 3] [--out qhcbench/records/baseline_grid.json]

Each point is a synthetic table on k inputs and N output qubits whose
weight-w rows map to basis state w.  The stages are timed as ROADMAP.md's
single-shot baseline timed them (build and validate the table, synthesize,
verify, one ``evaluate_continuous``), as medians over ``--repeats`` untraced
rounds, and one more traced round gives each layer's self time.  k=14, N=8 is
left out: its ``verify`` alone takes about 52 s.
"""

from __future__ import annotations

import run  # first: pins BLAS to one thread before numpy loads

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = run.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from qhckit import sim, synth  # noqa: E402

import spans  # noqa: E402

STAGES = ("build_ms", "synthesize_ms", "verify_ms", "evaluate_ms")
# ROADMAP.md "Baseline": single-shot perf_counter timings, in STAGES order.
ROADMAP_MS = {(3, 2): (0.1, 0.4, 0.6, 0.1), (10, 4): (3.6, 0.4, 29.7, 0.1), (12, 6): (11, 1.3, 1308, 0.2)}


def one_round(inputs: int, output_qubits: int) -> dict[str, float]:
    marks = [time.perf_counter()]
    rows = {bits: format(sum(bits), f"0{output_qubits}b")
            for bits in itertools.product((0, 1), repeat=inputs)}
    table = synth.TruthTable(input_count=inputs, output_qubits=output_qubits, rows=rows)
    marks.append(time.perf_counter())
    gate = synth.synthesize(table)
    marks.append(time.perf_counter())
    report = synth.verify(gate, table)
    marks.append(time.perf_counter())
    outcome = sim.evaluate_continuous(gate, [1.0] * inputs)
    marks.append(time.perf_counter())
    if not report.passed or outcome.label != format(inputs, f"0{output_qubits}b"):
        raise SystemExit(f"wrong result at k={inputs}, N={output_qubits}")
    return {stage: (b - a) * 1e3 for stage, a, b in zip(STAGES, marks, marks[1:])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    points = []
    for (inputs, output_qubits), roadmap in ROADMAP_MS.items():
        rounds = [one_round(inputs, output_qubits) for _ in range(args.repeats)]
        medians = {s: statistics.median(r[s] for r in rounds) for s in STAGES}
        rec = spans.Recorder()
        installation = spans.Installation(rec)
        try:
            traced_round = one_round(inputs, output_qubits)
        finally:
            installation.uninstall()
        self_ms = {name: ns / 1e6 for name, ns in sorted(rec.self_ns().items())}
        ratio = {s: medians[s] / ref for s, ref in zip(STAGES, roadmap)}
        points.append({
            "k": inputs,
            "N": output_qubits,
            "median_ms": medians,
            "roadmap_ms": dict(zip(STAGES, roadmap)),
            "ratio_to_roadmap": ratio,
            "traced_ms": traced_round,
            "self_ms": self_ms,
            "counters": dict(rec.counters),
        })
        cells = "  ".join(f"{s[:-3]} {medians[s]:9.2f} ms (roadmap {r:g}, x{ratio[s]:.2f})"
                          for s, r in zip(STAGES, roadmap))
        print(f"k={inputs:2d} N={output_qubits}: {cells}", flush=True)
    record = {
        "repeats": args.repeats,
        "environment": run.environment(seed=0, root=ROOT),
        "points": points,
        "omitted": "k=14, N=8: verify alone takes about 52 s",
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
