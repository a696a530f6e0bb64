"""Layer spans recorded from outside the package.

``Installation(rec)`` replaces each traced public function of ``qhckit`` with
a wrapper at every module attribute that refers to it, so calls made through the names
the callers imported (``cli`` calling ``parse_truth_table``, ``synth`` calling
``exp_from_spectrum``, ...) are timed.  Two class members are wrapped on the
class: ``TruthTable.__post_init__`` gets a span (table validation), and
``QhcGate.unitary`` only a call count, because it runs once per table row and
a span per call would make up most of the tracing overhead.
``uninstall()`` puts the originals back.

A span is (name, start ns, end ns, parent span, op id).  Spans are kept in
flat in-memory arrays while the run lasts and written out once at the end.
Self time is a span's duration minus the durations of its direct children;
calls nest strictly because the benchmark runs one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Amount a call adds to a counter, from its positional arguments and result.
CountFn = Callable[[tuple, Any], float]

CLI_COMMANDS = ("synth", "simulate", "verify", "report")


def _dim_of(args: tuple) -> int:
    return int(args[0].dim)


# Module, attribute, counters.  The span name is "<module>.<attribute>".
FUNCTIONS: tuple[tuple[str, str, dict[str, CountFn]], ...] = (
    ("serialize", "parse_truth_table", {"bytes_in": lambda a, r: len(a[0])}),
    ("serialize", "emit_matrix", {"bytes_out": lambda a, r: len(r)}),
    ("synth", "analyze_symmetry", {}),
    ("synth", "find_cycle", {}),
    ("synth", "synthesize", {}),
    ("synth", "verify", {"rows": lambda a, r: len(r.rows)}),
    (
        "linalg",
        "cycle_spectrum",
        # Dense eigenvector matrix plus the angle vector.
        {"bytes_computed": lambda a, r: 16 * r.dim * r.dim + 8 * r.dim},
    ),
    (
        "linalg",
        "exp_from_spectrum",
        # One d x d complex matrix product (8 real flops per multiply-add)
        # plus scaling d columns by their phases (6 flops per entry).
        {"flops_computed": lambda a, r: 8 * _dim_of(a) ** 3 + 6 * _dim_of(a) ** 2},
    ),
    ("linalg", "hermitian_generator", {}),
    ("linalg", "unitarity_defect", {}),
    ("sim", "apply", {}),
    ("sim", "decode", {}),
    ("sim", "evaluate_continuous", {}),
    ("gates", "cross_validate", {"grid_points": lambda a, r: a[1]}),
    ("report", "resource_report", {}),
)


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[key] += value

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, int] = defaultdict(int)
        for i, n in enumerate(self.name):
            totals[self.names[n]] += self.end[i] - self.start[i] - child[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for n in self.name:
            totals[self.names[n]] += 1
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON document of parallel columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _wrap(
    rec: Recorder, span: str, fn: Callable, counters: dict[str, CountFn], rejects: type | None = None
) -> Callable:
    """Time ``fn`` as ``span``; count each ``rejects`` error as ``synth.rejected.<class>``."""
    name_id = rec.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(index)
            if rejects is not None and isinstance(exc, rejects):
                rec.count(f"synth.rejected.{type(exc).__name__}", 1)
            raise
        rec.close(index)
        for suffix, counter in counters.items():
            rec.count(f"{span}.{suffix}", counter(args, result))
        return result

    return wrapper


def _count_calls(rec: Recorder, key: str, fn: Callable) -> Callable:
    """A counter without a span, for calls too frequent and cheap to time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrap_cli_main(rec: Recorder, fn: Callable) -> Callable:
    ids = {cmd: rec.name_id(f"cli.main.{cmd}") for cmd in CLI_COMMANDS}
    other = rec.name_id("cli.main")

    @functools.wraps(fn)
    def wrapper(argv=None):
        command = (argv or sys.argv[1:] or [""])[0]
        index = rec.open(ids.get(command, other))
        try:
            return fn(argv)
        finally:
            rec.close(index)

    return wrapper


def _qhckit_modules() -> list[Any]:
    return [m for n, m in sorted(sys.modules.items()) if n == "qhckit" or n.startswith("qhckit.")]


class Installation:
    """Wrappers installed into the loaded ``qhckit`` modules; undo with ``uninstall``."""

    def __init__(self, rec: Recorder) -> None:
        import qhckit.cli  # noqa: F401  (load every module that binds a traced name)
        from qhckit import errors, synth

        self._patches: list[tuple[Any, str, Any]] = []
        modules = _qhckit_modules()
        for module_name, attr, counters in FUNCTIONS:
            original = getattr(sys.modules[f"qhckit.{module_name}"], attr)
            rejects = errors.SynthesisError if attr == "find_cycle" else None
            wrapper = _wrap(rec, f"{module_name}.{attr}", original, counters, rejects)
            self._rebind(modules, original, wrapper)
        original_main = sys.modules["qhckit.cli"].main
        self._rebind(modules, original_main, _wrap_cli_main(rec, original_main))

        table_check = _wrap(
            rec,
            "synth.TruthTable",
            synth.TruthTable.__post_init__,
            {"rows": lambda a, r: len(a[0].rows)},
        )
        self._set(synth.TruthTable, "__post_init__", table_check)
        self._set(synth.QhcGate, "unitary", _count_calls(rec, "synth.QhcGate.unitary.calls", synth.QhcGate.unitary))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules: list[Any], original: Any, wrapper: Any) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """Per-op means of every layer counter, call count and self time."""
    self_ns = rec.self_ns()
    calls = rec.calls()
    out: dict[str, float] = {}
    for span, total in self_ns.items():
        out[f"{span}.self_ms"] = total / 1e6 / ops
    for span, total in calls.items():
        out[f"{span}.calls"] = total / ops
    for key, total in rec.counters.items():
        out[key] = total / ops
    return out
