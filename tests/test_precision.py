"""The report serializer, the precision policy and the public surface."""

import ast
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from mpmath import mp, mpf

from hardyz.precision import GUARD_BITS, digits_for, serialize, working_precision


@dataclass
class _Row:
    k: int
    value: mpf


@dataclass
class _Report:
    x: mpf
    count: int
    ok: bool
    note: str
    best: Optional[int]
    rows: List[_Row]


def test_serialize_keeps_the_value_bits():
    prec = 192
    with working_precision(prec):
        third = mp.mpf(1) / 3
        rep = _Report(x=third, count=0, ok=True, note="n", best=None,
                      rows=[_Row(k=1, value=-third)])
    # outside any working precision, mp.prec is 53: nothing may round to it
    assert mp.prec == 53
    out = serialize(rep, prec)
    assert out == {"x": mp.nstr(third, digits_for(prec)), "count": 0,
                   "ok": True, "note": "n", "best": None,
                   "rows": [{"k": 1, "value": "-" + out["x"]}]}
    assert out["x"] == "0." + "3" * digits_for(prec)
    assert json.dumps(serialize(rep, prec), sort_keys=True,
                      indent=2).startswith('{\n  "best": null,')


# ---------------------------------------------------------------------------
# the precision policy: entry points set the working precision once, helpers
# inherit it, and extra bits come from named constants

SRC = Path(__file__).resolve().parent.parent / "src" / "hardyz"
# perfbench's tracer calls _integrate(f, points, prec) positionally
HELPERS_ALLOWED_TO_SET_PRECISION = {("identity", "_integrate")}


def _calls(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                yield node


def _policy_breaches(src: Path) -> List[str]:
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.stem
        for node in ast.walk(tree):
            if not isinstance(node, ast.keyword) or node.arg != "prec":
                continue
            v = node.value
            if (isinstance(v, ast.Attribute) and v.attr == "prec"
                    and isinstance(v.value, ast.Name) and v.value.id == "mp"):
                found.append(f"{module}:{node.value.lineno}: prec=mp.prec")
        for call in _calls(tree, "working_precision"):
            if call.keywords or len(call.args) != 1:
                found.append(f"{module}:{call.lineno}: working_precision "
                             "with more than prec")
        for fn in tree.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_")
                    and (module, fn.name) not in HELPERS_ALLOWED_TO_SET_PRECISION
                    and any(_calls(fn, "working_precision"))):
                found.append(f"{module}.{fn.name} opens working_precision")
    return found


def test_precision_policy_holds_in_the_source():
    assert _policy_breaches(SRC) == []


# ---------------------------------------------------------------------------
# one public surface: every public function, class and method is used by the
# program itself.  The dual derivative route stays as the contour oracle.

SURFACE_ALLOWED_UNUSED = {"hardy.z_derivative_fd", "hardy.z_derivatives_batch"}


def _public_defs(tree, module):
    """(qualified name, def node, is_method) for each public definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, defs + (ast.ClassDef,)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _unused_public_names(src: Path, keep=frozenset()) -> List[str]:
    """Public names that no Name or Attribute in src refers to outside the
    definition's own lines, nor from the lines of another unused name.
    Methods count only as attributes; imports and docstrings are not uses.
    Names in keep are treated as used."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(src.glob("*.py"))}
    defs = [(module, *d) for module, tree in trees.items()
            for d in _public_defs(tree, module)]
    uses: dict = {}  # name -> [(module, line, is_attribute)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno, True))

    def inside(module, line, spans):
        return any(m == module and fn.lineno <= line <= fn.end_lineno
                   for m, fn in spans)

    unused: dict = {}
    while True:
        found = {}
        for module, qualname, fn, is_method in defs:
            if qualname in keep:
                continue
            if not any((is_attr or not is_method)
                       and not inside(m, line, [(module, fn), *unused.values()])
                       for m, line, is_attr in uses.get(fn.name, [])):
                found[qualname] = (module, fn)
        if found.keys() == unused.keys():
            return sorted(unused)
        unused = found


def test_every_public_name_is_used_in_the_source():
    assert _unused_public_names(SRC, keep=SURFACE_ALLOWED_UNUSED) == []


def test_working_precision_takes_only_prec():
    assert list(inspect.signature(working_precision).parameters) == ["prec"]
    with working_precision(100):
        assert mp.prec == 100 + GUARD_BITS
    assert mp.prec == 53
