"""Mutation harness: shows which small code changes the tier-1 tests fail to notice.

Run by hand from the repository root (pytest does not collect this file):

    python tests/mutants.py src/qhckit/serialize.py src/qhckit/cli.py
    python tests/mutants.py --operators delete --rev "$(git stash create)"

It extracts the tree of a commit (``git archive REV | tar -x``) into one
scratch directory per worker (two, under ``TMPDIR``), then applies one mutant
at a time to the named modules (all of ``src/qhckit`` by default) and runs
tier-1 with ``-x``, the module's own test file first, under a timeout of three
times a clean run's time and at least 60 s.  A mutant is killed when the run
fails, survives when it passes and times out when it is cut.  The operators:

- ``delete``: a simple statement (not a docstring, ``pass`` or an import)
  becomes ``pass``;
- ``negate``: an ``if`` test ``t`` becomes ``not (t)``;
- ``compare``: ``<`` and ``<=`` swap, and so do ``>`` and ``>=``;
- ``constant``: an integer literal ``n`` becomes ``n + 1``.

Each mutant is printed with its status, file, line, operator and source text,
and the survivors and timeouts again at the end.  ``git stash create`` names a
commit of the working tree, so uncommitted changes can be run too.  It uses
only the standard library and pytest, and touches nothing outside the scratch
directories, which it removes at the end.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
          "-p", "no:cacheprovider"]
OPERATORS = ("delete", "negate", "compare", "constant")
WORKERS = 2  # scratch trees run at once
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
# Statements not deleted: compound ones, and those whose deletion changes nothing or
# only fails at import.
KEPT = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try,
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Match,
        ast.Pass, ast.Import, ast.ImportFrom)


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the tree's root
    line: int
    operator: str
    start: int  # byte offsets of the replaced text in the module
    end: int
    replacement: bytes

    def apply(self, data: bytes) -> bytes:
        return data[: self.start] + self.replacement + data[self.end :]

    def describe(self, data: bytes) -> str:
        """file:line:column, operator, the old text and the new, and the line's text."""
        old, line = data[self.start : self.end].decode(), data.splitlines()[self.line - 1]
        new, line = self.replacement.decode(), line.decode().strip()
        column = self.start - data.rfind(b"\n", 0, self.start)
        text = f"{self.path}:{self.line}:{column} {self.operator:8} {old!r} -> {new!r}"
        return text if old == line else f"{text} in {line!r}"


def mutants(path: str, data: bytes, operators: tuple[str, ...]) -> list[Mutant]:
    """Every mutant of one module's source that still compiles, in file order."""
    lines = data.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    found = []

    def add(node: ast.AST, operator: str, replace) -> None:
        # ast columns are UTF-8 byte offsets.
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        found.append(Mutant(path, node.lineno, operator, start, end, replace(data[start:end])))

    for node in ast.walk(ast.parse(data)):
        if "delete" in operators and isinstance(node, ast.stmt) and not isinstance(node, KEPT):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                add(node, "delete", lambda old: b"pass")  # docstrings are left alone
        if "negate" in operators and isinstance(node, ast.If):
            add(node.test, "negate", lambda old: b"not (" + old + b")")
        if "constant" in operators and isinstance(node, ast.Constant) and type(node.value) is int:
            add(node, "constant", lambda old, value=node.value: str(value + 1).encode())
    if "compare" in operators:
        for token in tokenize.tokenize(io.BytesIO(data).readline):
            if token.type == tokenize.OP and token.string in SWAPS:
                (line, column), (_, end_column) = token.start, token.end
                text = lines[line - 1].decode()  # tokenize columns count characters
                start = starts[line - 1] + len(text[:column].encode())
                end = start + end_column - column
                swap = SWAPS[token.string].encode()
                found.append(Mutant(path, line, "compare", start, end, swap))
    valid = []
    for mutant in sorted(found, key=lambda m: (m.start, m.operator)):
        try:
            compile(mutant.apply(data), path, "exec")
        except SyntaxError:
            continue
        valid.append(mutant)
    return valid


def extract(rev: str, into: Path) -> None:
    """The tree of ``rev``, as ``git archive REV | tar -x`` writes it."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run_tier_1(tree: Path, first: list[str], timeout: float) -> str:
    """'killed', 'survived' or 'timeout': tier-1 with -x in ``tree``, the given tests first."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    process = subprocess.Popen([*TIER_1, *first, "tests"], cwd=tree, start_new_session=True,
                               # No bytecode cache: a mutant and the original may share a size
                               # and a modification second.
                               env={**os.environ, "PYTHONPATH": path,
                                    "PYTHONDONTWRITEBYTECODE": "1"},
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return "survived" if process.wait(timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the run's own subprocesses too
        process.wait()
        return "timeout"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="paths from the repository root")
    parser.add_argument("--rev", default="HEAD", help="commit whose tree is mutated")
    parser.add_argument("--operators", default=",".join(OPERATORS),
                        help=f"comma-separated subset of {','.join(OPERATORS)}")
    args = parser.parse_args(argv)
    operators = tuple(args.operators.split(","))
    if not set(operators) <= set(OPERATORS):
        parser.error(f"unknown operator in {args.operators!r}")

    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        trees = [scratch / f"tree{i}" for i in range(WORKERS)]
        for tree in trees:
            extract(args.rev, tree)
        modules = args.modules or sorted(str(p.relative_to(trees[0]))
                                         for p in (trees[0] / "src" / "qhckit").glob("*.py"))
        originals = {path: (trees[0] / path).read_bytes() for path in modules}
        todo = [m for path in modules for m in mutants(path, originals[path], operators)]
        began = time.monotonic()
        if run_tier_1(trees[0], [], timeout=3600) != "survived":
            raise SystemExit(f"tier-1 fails on the unmutated tree of {args.rev}")
        timeout = max(60.0, 3 * (time.monotonic() - began))
        print(f"{len(todo)} mutants of {len(modules)} modules at {args.rev}, "
              f"{WORKERS} workers, {timeout:.0f} s timeout", flush=True)

        free: queue.Queue[Path] = queue.Queue()
        for tree in trees:
            free.put(tree)

        def run(mutant: Mutant) -> tuple[Mutant, str]:
            tree = free.get()
            target = tree / mutant.path
            own = Path("tests") / f"test_{target.stem}.py"
            try:
                target.write_bytes(mutant.apply(originals[mutant.path]))
                status = run_tier_1(tree, [str(own)] if (tree / own).exists() else [], timeout)
            finally:
                target.write_bytes(originals[mutant.path])
                free.put(tree)
            print(f"{status:8} {mutant.describe(originals[mutant.path])}", flush=True)
            return mutant, status

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(run, todo))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    statuses = [status for _, status in results]
    counts = {s: statuses.count(s) for s in ("killed", "survived", "timeout")}
    print(", ".join(f"{n} {s}" for s, n in counts.items()),
          f"in {time.monotonic() - began:.0f} s", flush=True)
    for mutant, status in results:
        if status != "killed":
            print(f"{status.upper():8} {mutant.describe(originals[mutant.path])}")
    return 1 if counts["survived"] or counts["timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())
