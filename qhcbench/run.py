"""qhckit benchmark: one client in a closed loop, every output checked.

    python3 qhcbench/run.py --workload table_compile --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The process pins BLAS to one thread and starts no threads of its
own.  Workloads (see ``workloads.py``):

* ``table_compile``: a row-form JSON document through parse, synthesize, verify.
* ``dense_state``: an in-memory table on 128..512 states through synthesize,
  verify and 8 real-valued evaluations.
* ``cli_roundtrip``: one fresh ``qhc`` process per op.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from a traced run (see
``spans.py``).  A results file with the environment, input properties and
failure reasons goes to ``qhcbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports numpy, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
STARTED = time.perf_counter()
# Runs end well inside the 180 s a run may take, whatever --seconds says.
HARD_LIMIT_S = 150.0
# The tail is the 90th percentile: at this commit every workload completes
# 150..400 ops per 35 s run, so p90 is the highest of the percentiles
# 50/90/99 with at least ten samples beyond it.  Runs go on past --seconds
# until MIN_OPS ops are done so those ten samples always exist.
TAIL_PCT = 90
MIN_OPS = 100
SETUP_PROBES = 7

WORKLOADS = ("table_compile", "dense_state", "cli_roundtrip")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

# Per-layer metrics are per-op means over the traced ops, except cli.import_ms
# (median over the set-up probes) and the trace.* figures.
LAYER_METRICS = (
    ("serialize.parse_truth_table.calls", "count"),
    ("serialize.parse_truth_table.self_ms", "ms"),
    ("serialize.parse_truth_table.bytes_in", "B"),
    ("synth.TruthTable.self_ms", "ms"),
    ("synth.TruthTable.rows", "count"),
    ("synth.analyze_symmetry.self_ms", "ms"),
    ("synth.find_cycle.self_ms", "ms"),
    ("synth.synthesize.self_ms", "ms"),
    ("synth.rejected.NotSymmetric", "count"),
    ("synth.rejected.InitialStateMismatch", "count"),
    ("synth.rejected.NonEmbeddable", "count"),
    ("synth.verify.self_ms", "ms"),
    ("synth.verify.rows", "count"),
    ("synth.QhcGate.unitary.calls", "count"),
    ("linalg.cycle_spectrum.calls", "count"),
    ("linalg.cycle_spectrum.self_ms", "ms"),
    ("linalg.cycle_spectrum.bytes_computed", "B"),
    ("linalg.exp_from_spectrum.calls", "count"),
    ("linalg.exp_from_spectrum.self_ms", "ms"),
    ("linalg.exp_from_spectrum.flops_computed", "flop"),
    ("linalg.hermitian_generator.self_ms", "ms"),
    ("linalg.unitarity_defect.calls", "count"),
    ("linalg.unitarity_defect.self_ms", "ms"),
    ("sim.apply.self_ms", "ms"),
    ("sim.decode.self_ms", "ms"),
    ("sim.evaluate_continuous.calls", "count"),
    ("sim.evaluate_continuous.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.synth.self_ms", "ms"),
    ("cli.main.simulate.self_ms", "ms"),
    ("cli.main.verify.self_ms", "ms"),
    ("cli.main.report.self_ms", "ms"),
    ("cli.stdout_bytes", "B"),
    ("gates.cross_validate.self_ms", "ms"),
    ("gates.cross_validate.grid_points", "count"),
    ("serialize.emit_matrix.self_ms", "ms"),
    ("serialize.emit_matrix.bytes_out", "B"),
    ("report.resource_report.self_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.covered_frac", "ratio"),
)


def percentile(sorted_values: list[int], pct: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class Loop:
    """Latencies (ns) and check outcomes of consecutive ops."""

    latencies: list[int] = field(default_factory=list)
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    properties: list[dict[str, Any]] = field(default_factory=list)


def run_op(workload, index: int, loop: Loop, rec=None) -> None:
    """Time op ``index``, check it afterwards, and add the outcome to ``loop``."""
    op = workload.op(index)
    if rec is not None:
        rec.current_op = index
    t0 = time.perf_counter_ns()
    try:
        result, error = workload.execute(op), None
    except Exception as exc:  # an op's error is judged by its check
        result, error = None, exc
    t1 = time.perf_counter_ns()
    try:
        workload.check(op, result, error)
    except Exception as exc:  # any check failure, including a malformed result
        loop.failed += 1
        if len(loop.reasons) < 5:
            loop.reasons.append(f"op {index}: {type(exc).__name__}: {exc}")
    if rec is not None:
        for key, value in workload.counters(result).items():
            rec.count(key, value)
    loop.latencies.append(t1 - t0)
    loop.properties.append(op.properties())


def run_loop(workload, seconds: float, min_ops: int, probes: SetupProbes | None = None,
             twin: Callable[[int], None] | None = None) -> Loop:
    """Run ops 0, 1, 2, ... back to back for ``seconds`` and at least ``min_ops`` ops.

    With ``probes``, set-up probes run between ops, spread evenly over
    ``seconds``, so their median samples the whole run rather than one moment
    of a host whose speed drifts.  ``twin(index)``, if given, runs right
    after each op.
    """
    loop = Loop()
    start = last_probe = time.perf_counter()
    probe_every = seconds / (SETUP_PROBES - 1)
    index = 0
    while True:
        now = time.perf_counter()
        if now - STARTED > HARD_LIMIT_S or (now - start >= seconds and index >= min_ops):
            break
        if probes is not None and now - last_probe >= probe_every and len(probes.walls) < SETUP_PROBES:
            probes.run()
            last_probe = now
        run_op(workload, index, loop)
        if twin is not None:
            twin(index)
        index += 1
    return loop


class SetupProbes:
    """Fresh interpreters that import qhckit and run op 0 (``probe.py``)."""

    def __init__(self, name: str, seed: int, env: dict[str, str], root: Path) -> None:
        self.argv = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed)]
        self.env = env
        self.root = root
        self.walls: list[float] = []
        self.imports: list[float] = []

    def run(self) -> None:
        workdir = BENCH_DIR / "out" / f"probe-{os.getpid()}-{len(self.walls)}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*self.argv, str(workdir)], capture_output=True, text=True, env=self.env, cwd=self.root, timeout=60,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise ProbeFailed(proc.stderr.strip()[-300:])
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.walls.append(wall - report["build_ms"] / 1e3)
        self.imports.append(report["import_ms"])

    def summary(self) -> dict[str, Any]:
        return {
            "setup_s": statistics.median(self.walls),
            "import_ms": statistics.median(self.imports),
            "walls_s": self.walls,
        }


class ProbeFailed(Exception):
    """A set-up probe exited with an error."""


def input_properties(props: list[dict[str, Any]]) -> dict[str, Any]:
    """Histograms of the executed ops' sizes, rejected share and bytes parsed."""
    out: dict[str, Any] = {}
    for key in ("k", "N", "d", "L", "kind", "rejected"):
        values = [p[key] for p in props if p.get(key) is not None]
        if values:
            out[key] = {str(v): c for v, c in sorted(Counter(values).items())}
    out["ops"] = len(props)
    out["rejected_share"] = sum(1 for p in props if p.get("rejected")) / max(1, len(props))
    out["bytes_parsed"] = sum(p["bytes"] for p in props)
    out["bytes_parsed_per_op"] = out["bytes_parsed"] / max(1, len(props))
    return out


def latency_by_class(loop: Loop) -> dict[str, dict[str, float]]:
    """Median latency per input class (k, N, and rejection or CLI kind)."""
    groups: dict[str, list[int]] = {}
    for props, ns in zip(loop.properties, loop.latencies):
        key = "-".join(str(props[k]) for k in ("kind", "k", "N", "rejected") if props.get(k) is not None)
        groups.setdefault(key, []).append(ns)
    return {
        key: {"ops": len(v), "p50_ms": statistics.median(v) / 1e6}
        for key, v in sorted(groups.items())
    }


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed: int, root: Path) -> dict[str, Any]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas_info = None
    sources = sorted((root / "src" / "qhckit").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    task_dir = Path("/proc/self/task")
    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": digest,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_info,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": len(list(task_dir.iterdir())) if task_dir.is_dir() else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def end_to_end(loop: Loop, setup: dict[str, Any], cli_children: bool) -> tuple[dict[str, float], dict[str, Any]]:
    lat = sorted(loop.latencies)
    ops = len(lat)
    who = resource.RUSAGE_CHILDREN if cli_children else resource.RUSAGE_SELF
    values = {
        "ops_per_s": ops / (sum(lat) / 1e9),
        "op_p50_ms": percentile(lat, 50) / 1e6,
        "op_tail_ms": percentile(lat, TAIL_PCT) / 1e6,
        "ok_frac": 1.0 - loop.failed / ops,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    tail = {
        "percentile": TAIL_PCT,
        "samples": ops,
        "beyond": ops - max(1, math.ceil(TAIL_PCT / 100.0 * ops)),
        "fail_frac": loop.failed / ops,
        "latency_sum_s": sum(lat) / 1e9,
    }
    return values, tail


def traced(workload, seconds: float, probes: SetupProbes | None = None) -> tuple[Loop, dict[str, float], dict[str, Any], Any]:
    """Each op untraced, then at once again with spans recorded.

    Running the two passes op by op, rather than one after the other, puts
    both readings of an op in the same stretch of host speed, so the
    overhead compares like with like.
    """
    import spans

    rec = spans.Recorder()
    loop = Loop()

    def traced_twin(index: int) -> None:
        installation = spans.Installation(rec)
        try:
            run_op(workload, index, loop, rec)
        finally:
            installation.uninstall()

    plain = run_loop(workload, seconds, min_ops=20, probes=probes, twin=traced_twin)
    ops = len(loop.latencies)
    traced_ns = sum(loop.latencies)
    plain_ns = sum(plain.latencies)
    metrics = spans.layer_metrics(rec, ops)
    self_ns = rec.self_ns()
    metrics["trace.ops_per_s"] = ops / (traced_ns / 1e9)
    metrics["trace.overhead_frac"] = 1.0 - plain_ns / traced_ns
    metrics["trace.covered_frac"] = sum(self_ns.values()) / traced_ns
    detail = {
        "untraced_ops_per_s": ops / (plain_ns / 1e9),
        "traced_ops": ops,
        "spans": len(rec.start),
        "layer_share": {k: v / traced_ns for k, v in sorted(self_ns.items(), key=lambda kv: -kv[1])},
    }
    plain.failed += loop.failed
    plain.reasons += loop.reasons
    plain.latencies += loop.latencies
    return plain, metrics, detail, rec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one qhckit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qhckit" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'qhckit'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qhckit

    if Path(qhckit.__file__).resolve().parent != (src / "qhckit").resolve():
        print(f"error: imported qhckit from {qhckit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    env = dict(os.environ, PYTHONPATH=str(src))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    probes = SetupProbes(args.workload, args.seed, env, root)
    workload = workloads.make(args.workload, args.seed, out_dir / f"work-{os.getpid()}", env)
    workload.in_process = bool(args.trace)
    try:
        probes.run()
        op = workload.op(0)
        try:  # warm-up op, not timed; the measured loop starts again at op 0
            workload.execute(op)
        except Exception:  # judged when the loop runs and checks op 0
            pass
        if args.trace:
            loop, layer, detail, rec = traced(workload, args.seconds, probes)
            rec.write(out_dir / f"{args.workload}.spans.json")
        else:
            loop = run_loop(workload, args.seconds, MIN_OPS, probes)
        while len(probes.walls) < SETUP_PROBES:
            probes.run()
    except ProbeFailed as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()
    setup = probes.summary()

    results: dict[str, Any] = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, root),
        "inputs": input_properties(loop.properties),
        "latency_by_class": latency_by_class(loop),
        "latencies_ms": [ns / 1e6 for ns in loop.latencies],
        "setup": setup,
        "failures": loop.reasons,
    }
    if args.trace:
        values = {name: layer.get(name, 0.0) for name, _ in LAYER_METRICS}
        values["cli.import_ms"] = setup["import_ms"]
        units = dict(LAYER_METRICS)
        results["trace_detail"] = detail
        results["all_layer_metrics"] = layer
        summary = (f"traced {detail['traced_ops']} ops, {detail['spans']} spans; "
                   f"overhead {values['trace.overhead_frac']:+.1%} of untraced ops/s, "
                   f"layers cover {values['trace.covered_frac']:.1%} of op time")
    else:
        values, tail = end_to_end(loop, setup, cli_children=args.workload == "cli_roundtrip")
        units = dict(END_TO_END)
        results["tail"] = tail
        summary = (f"{tail['samples']} ops; tail is p{TAIL_PCT} over {tail['samples']} samples "
                   f"({tail['beyond']} beyond); fail_frac {tail['fail_frac']}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    results["metrics"] = metrics
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    attempted = len(loop.latencies)
    print(f"{args.workload} seed={args.seed}: {summary}")
    for reason in loop.reasons:
        print(f"failed {reason}")
    print(f"results: {path.relative_to(root)}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
