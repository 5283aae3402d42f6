"""Statement lines of src/hardyz that no tools/cli_digests.py command executes.

Turns on sys.settrace before hardyz is imported, runs every command of
cli_digests.COMMANDS in this one interpreter (stdout discarded), and prints
one "module:first-last" line per range of consecutive statements that no
command reached, in module and line order:

    python tools/unreached_lines.py            # this checkout
    python tools/unreached_lines.py CHECKOUT   # another one

A simple statement counts as reached when any of its lines ran; a compound
one (if, for, def, try, ...) when its header ran or any statement inside
it was reached.  Docstrings, global and nonlocal run no code and are
skipped.  The commands share the interpreter, so a cache one command fills
can keep another from running its filling code; the lines still count as
reached by the first.

Unreached does not mean dead.  The CLI lines exercise the program's
normal paths, so input guards and error raises show up, as do routes that
only the tests or the benchmark reach: find_zeros' fallback (Illinois
proved by its bracket's ends, after NEWTON_READS reads) and rescan loop, hardy.z_derivatives_batch with
the width-0 branches of hardy._TaylorPatches (no truncation, J = kmax + 1,
a second build for a small read), hardy._TaylorPatches' step to the next
count (tests/test_hardy.py forces a low count estimate; at every digest
height the estimate holds),
kernel.sine_product(log_domain), the polynomial probe's exact rule in
divided_diff (quadrature.exact_count) and precision.held's int and float
branches all stay.  A range is worth a look when nothing in tests/ or
perfbench/ reaches it either; unreached_ranges is tested on a synthetic
module by tests/test_tools.py.

Uses the standard library only.  Tracing makes the list take about twice
as long as cli_digests.py's untraced runs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import shlex
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_digests import COMMANDS  # noqa: E402

COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
            ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _runs_nothing(node: ast.stmt) -> bool:
    """A docstring, global or nonlocal: no code to execute."""
    return isinstance(node, (ast.Global, ast.Nonlocal)) or isinstance(node, ast.Expr) \
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _children(node) -> Iterator[ast.stmt]:
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, []):
            if isinstance(child, ast.ExceptHandler):
                yield from child.body
            else:
                yield child


def _reached(node: ast.stmt, ran: Set[int], out: List[Tuple[int, int, bool]]) -> bool:
    """Whether node was reached; appends (first, last, reached) for node and
    every statement inside it to out, in source order."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    if isinstance(node, COMPOUND):
        header_end = node.body[0].lineno - 1
        inner: List[Tuple[int, int, bool]] = []
        hits = [_reached(child, ran, inner) for child in _children(node)
                if not _runs_nothing(child)]
        hit = any(line in ran for line in range(first, header_end + 1)) or any(hits)
        out.append((first, header_end, hit))
        out.extend(inner)
        return hit
    hit = any(line in ran for line in range(first, node.end_lineno + 1))
    out.append((first, node.end_lineno, hit))
    return hit


def unreached_ranges(path: Path, ran: Set[int]) -> List[Tuple[int, int]]:
    """(first, last) line ranges of consecutive unreached statements."""
    spans: List[Tuple[int, int, bool]] = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not _runs_nothing(node):
            _reached(node, ran, spans)
    ranges: List[Tuple[int, int]] = []
    gap = False  # whether a reached statement came since the last range
    for first, last, hit in sorted(spans):
        if hit:
            gap = True
        elif ranges and not gap:
            ranges[-1] = (ranges[-1][0], max(ranges[-1][1], last))
        else:
            ranges.append((first, last))
            gap = False
    return ranges


def run_traced(src: Path) -> Dict[str, Set[int]]:
    """Lines executed in each src/hardyz file, by file path, over every
    command."""
    prefix = str(src / "hardyz")
    ran: Dict[str, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(src))
    sys.settrace(on_call)
    try:
        from hardyz.cli import main
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    main(shlex.split(command))
                except SystemExit:
                    pass
    finally:
        sys.settrace(None)
    return ran


def main(argv: list) -> int:
    if len(argv) > 1:
        print("usage: unreached_lines.py [CHECKOUT]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not (src / "hardyz").is_dir():
        print(f"no src/hardyz under {root}", file=sys.stderr)
        return 2
    ran = run_traced(src)
    for path in sorted((src / "hardyz").glob("*.py")):
        for first, last in unreached_ranges(path, ran.get(str(path), set())):
            print(f"{path.stem}:{first}-{last}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
