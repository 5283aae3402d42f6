"""The report serializer, the sign-change finder, the precision policy and
the public surface."""

import ast
import importlib.util
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import pytest
from mpmath import mp, mpf

from hardyz.precision import (GUARD_BITS, digits_for, refine_sign_change, serialize,
                              working_precision)


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
    width: mpf = field(metadata={"digits": 6})


def test_serialize_keeps_the_value_bits():
    prec = 192
    with working_precision(prec):
        third = mp.mpf(1) / 3
        rep = _Report(x=third, count=0, ok=True, note="n", best=None,
                      rows=[_Row(k=1, value=-third)], width=third / 1000)
    # outside any working precision, mp.prec is 53: nothing may round to it
    assert mp.prec == 53
    out = serialize(rep, prec)
    assert out == {"x": mp.nstr(third, digits_for(prec)), "count": 0,
                   "ok": True, "note": "n", "best": None,
                   "rows": [{"k": 1, "value": "-" + out["x"]}],
                   "width": "0.000333333"}
    assert out["x"] == "0." + "3" * digits_for(prec)
    assert json.dumps(serialize(rep, prec), sort_keys=True,
                      indent=2).startswith('{\n  "best": null,')


# ---------------------------------------------------------------------------
# the one sign-change finder, at find_zeros' width (2^-48 at 128 bits) and at
# find_c_eps' (2^-(prec+1) at 192 bits); bisection halves [0, 1] 47 and 192
# times to reach them

WIDTHS = pytest.mark.parametrize("prec, width_bits, bisections",
                                 [(128, 48, 47), (192, 193, 192)],
                                 ids=["2^-48", "2^-193"])


def _refine_counted(f, lo, hi, prec, width_bits):
    """refine_sign_change on [lo, hi] at prec: (point, half-width, evaluations)."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    with working_precision(prec):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        a, b = refine_sign_change(counted, lo, hi, f(lo), f(hi),
                                  mp.mpf(2) ** -width_bits)
        return (a + b) / 2, (b - a) / 2, len(calls)


@WIDTHS
def test_refine_smooth_root_in_few_evaluations(prec, width_bits, bisections):
    f = lambda x: mp.cos(x) - x
    x, hw, n = _refine_counted(f, 0, 1, prec, width_bits)
    with working_precision(prec):
        assert 0 < hw <= mp.mpf(2) ** -width_bits
        assert (f(x - hw) > 0) != (f(x + hw) > 0)
        assert abs(x - mp.findroot(f, 0.74)) <= hw
    assert n <= 12


@WIDTHS
def test_refine_returns_an_exact_zero_at_the_secant_point(prec, width_bits, bisections):
    x, hw, n = _refine_counted(lambda x: x - mp.mpf(0.25), 0, 1, prec, width_bits)
    assert (x, hw, n) == (mp.mpf(0.25), 0, 1)


def test_refine_ends_with_the_bracket_so_far_where_f_returns_none():
    # f reads (x - 0.3)^3 at both ends and twice inside, then returns None:
    # the bracket of those reads comes back, however wide, without the fifth
    seen = []

    def f(x):
        seen.append(x)
        return (x - mp.mpf(0.3)) ** 3 if len(seen) <= 4 else None

    with working_precision(128):
        lo, hi = refine_sign_change(f, mp.mpf(0), mp.mpf(1), f(mp.mpf(0)),
                                    f(mp.mpf(1)), mp.mpf(2) ** -48)
        assert len(seen) == 5
        assert lo < mp.mpf(0.3) < hi and hi - lo > 2 ** -47
        assert {lo, hi} <= set(seen[:4]) and seen[4] not in (lo, hi)


# 1/3 at more bits than any working precision here: no point the finder
# tries is the root, so the sign of f is the sign of x - THIRD and the
# bracket is never closed by an exact zero
with mp.workprec(512):
    THIRD = mp.mpf(1) / 3


@WIDTHS
@pytest.mark.parametrize("f", [lambda x: (x - THIRD) ** 5,
                               lambda x: mp.tanh(200 * (x - THIRD))],
                         ids=["flat", "steep"])
def test_refine_flat_or_steep_stays_within_twice_bisection(f, prec, width_bits,
                                                            bisections):
    x, hw, n = _refine_counted(f, 0, 1, prec, width_bits)
    with working_precision(prec):
        assert 0 < hw <= mp.mpf(2) ** -width_bits
        assert abs(x - THIRD) <= hw
    assert n <= 2 * bisections


# ---------------------------------------------------------------------------
# the precision policy: entry points set the working precision once, helpers
# inherit it, and extra bits come from named constants

SRC = Path(__file__).resolve().parent.parent / "src" / "hardyz"
HELPERS_ALLOWED_TO_SET_PRECISION = set()


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
# program itself.

# perfbench's tracer patches hardy.z_derivatives_batch by name, and perfbench
# changes only with the benchmark
SURFACE_ALLOWED_UNUSED = {"hardy.z_derivatives_batch"}


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


def test_the_benchmark_tracer_finds_every_name_it_patches():
    # install() reads each name with getattr, so a name gone from src makes
    # perfbench/run.py --trace 1 raise AttributeError
    from hardyz import hardy
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parent.parent / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    batch = hardy.z_derivatives_batch
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert hardy.z_derivatives_batch is not batch
    finally:
        tracer.restore()
    assert hardy.z_derivatives_batch is batch


# ---------------------------------------------------------------------------
# a run is one process: no module starts another, so counters and results
# never have to be merged across processes

PROCESS_MODULES = {"concurrent.futures", "multiprocessing", "subprocess"}


def _imports(src: Path, modules) -> List[str]:
    """'module:line' for each import of one of the modules or of a submodule."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            if any(name in modules or name.startswith(m + ".")
                   for name in names for m in modules):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_a_run_is_one_process():
    assert _imports(SRC, PROCESS_MODULES) == []


# ---------------------------------------------------------------------------
# one source of random numbers: each verify-lemmas suite draws from its own
# seeded substream, and kernel.random_config takes that stream as an argument

def test_only_the_lemmas_draw_random_numbers():
    assert {use.split(":")[0] for use in _imports(SRC, {"random"})} == {"lemmas"}


# ---------------------------------------------------------------------------
# a run is its argv: no module reads the environment, so the flags alone fix
# the printed bytes

ENVIRONMENT_READERS = {"environ", "getenv"}


def _environment_reads(src: Path) -> List[str]:
    """'module:line' for each os.environ or os.getenv, imported or not."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                owner, names = getattr(node.value, "id", None), [node.attr]
            elif isinstance(node, ast.ImportFrom):
                owner, names = node.module, [alias.name for alias in node.names]
            else:
                continue
            if owner == "os" and ENVIRONMENT_READERS.intersection(names):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_a_run_is_its_argv():
    assert _environment_reads(SRC) == []


# ---------------------------------------------------------------------------
# one zeta route: the program sums zeta itself (zeta._zeta_em, with a proved
# bound), on the critical line and off it; the library zeta is the tests'
# oracle only

LIBRARY_OWNERS = {"mp", "mpmath"}


def _library_uses(src: Path, name: str) -> List[str]:
    """'module.owner:line' for each mp.<name> or mpmath.<name>, and each
    <name> imported from mpmath; owner is the top-level function or class
    that holds it, and is left out at module level."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = path.stem + (f".{top.name}" if isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else "")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    hit = node.attr == name and getattr(node.value, "id", None) in LIBRARY_OWNERS
                elif isinstance(node, ast.ImportFrom):
                    hit = node.module in LIBRARY_OWNERS and any(
                        alias.name == name for alias in node.names)
                else:
                    continue
                if hit:
                    found.append(f"{owner}:{node.lineno}")
    return found


def test_zeta_has_one_route():
    assert _library_uses(SRC, "zeta") == []


def test_siegelz_is_the_tests_oracle_only():
    # find_zeros, z_eval and the contours read Z from the program's own
    # routes; mpmath's Z is what the tests compare them with
    assert _library_uses(SRC, "siegelz") == []


def test_src_calls_mp_quad_nowhere():
    # every integral of the program takes one Gauss-Legendre rule, of the
    # node count its proved bound chooses, and quadrature computes the
    # nodes itself; mp.quad's ladder and mpmath's nodes are the tests'
    # references
    assert _library_uses(SRC, "quad") == []
    assert _library_uses(SRC, "_gauss_legendre") == []


def test_only_the_kernel_asks_whether_a_configuration_is_strict():
    # psi_star_boundary chooses between the strict and the weakly ordered
    # route for the boundary values, and coefficients refuses a weakly
    # ordered configuration for every other caller
    callers = {path.stem for path in SRC.glob("*.py")
               if any(_calls(ast.parse(path.read_text(), filename=str(path)),
                             "is_strict"))}
    assert callers == {"kernel"}


def test_working_precision_takes_only_prec():
    assert list(inspect.signature(working_precision).parameters) == ["prec"]
    with working_precision(100):
        assert mp.prec == 100 + GUARD_BITS
    assert mp.prec == 53


# ---------------------------------------------------------------------------
# every option is an option: a parameter with a default, other than prec,
# is given another value by some call in src/hardyz, or it is a constant.

OPTIONS_ALLOWED_UNSET = {
    # the console script calls main() and argparse reads sys.argv
    "cli.main(argv)",
    # only perfbench's certificate oracle sets it, and perfbench changes
    # only with the benchmark
    "kernel.sine_product(log_domain)",
}


def _field_is_init(value) -> bool:
    """False for a dataclass field(..., init=False)."""
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def _options(tree, module):
    """(label, callee name, position, default) for each defaulted parameter
    other than prec.  position counts the arguments a call passes (after
    self) and is None for keyword-only parameters.  A class's options are
    those of its __init__, or its dataclass fields, set by constructor
    calls."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def of_function(fn, label, callee, skip_self):
        a = fn.args
        positional = a.posonlyargs + a.args
        defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
        for i, (arg, default) in enumerate(zip(positional, defaults)):
            if default is not None and arg.arg != "prec":
                yield (f"{label}({arg.arg})", callee, i - skip_self, default)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None and arg.arg != "prec":
                yield (f"{label}({arg.arg})", callee, None, default)

    for node in tree.body:
        if isinstance(node, defs):
            yield from of_function(node, f"{module}.{node.name}", node.name, 0)
        if not isinstance(node, ast.ClassDef):
            continue
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name) and _field_is_init(s.value)]
        for i, s in enumerate(fields):
            if s.value is not None and s.target.id != "prec":
                yield (f"{module}.{node.name}({s.target.id})", node.name, i, s.value)
        for item in node.body:
            if isinstance(item, defs):
                if item.name == "__init__":
                    yield from of_function(item, f"{module}.{node.name}",
                                           node.name, 1)
                else:
                    yield from of_function(item, f"{module}.{node.name}.{item.name}",
                                           item.name, 1)


def _unset_options(src: Path) -> List[str]:
    """Options that no call in src passes a value other than the default
    to.  Calls are matched by name; a value that is not the default's own
    expression counts as another value, and so does a * or ** argument."""
    trees = [(p.stem, ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(src.glob("*.py"))]
    calls: dict = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, param, position, default):
        if any(k.arg is None for k in call.keywords) \
                or any(isinstance(a, ast.Starred) for a in call.args):
            return True
        given = [k.value for k in call.keywords if k.arg == param]
        if position is not None and position < len(call.args):
            given.append(call.args[position])
        return any(ast.dump(v) != ast.dump(default) for v in given)

    unset = []
    for module, tree in trees:
        for label, callee, position, default in _options(tree, module):
            param = label[label.index("(") + 1:-1]
            if not any(sets(c, param, position, default)
                       for c in calls.get(callee, [])):
                unset.append(label)
    return sorted(unset)


def test_every_option_is_set_by_the_program():
    assert _unset_options(SRC) == sorted(OPTIONS_ALLOWED_UNSET)


# ---------------------------------------------------------------------------
# a number is rounded once, where it is stored: configurations, node
# multisets, parameters and kernel weights hold their mpf, and no reader
# passes a held number through mp.mpf again

HELD_ATTRS = {"a", "nodes", "c", "eps", "alpha", "mu"}
REROUNDS_ALLOWED = {
    # the conversion point itself: c and eps are rounded once, at prec
    "extremal.ExtremalParams.__post_init__",
    # c and eps are parsed as doubles, as perfbench's certificate oracle
    # parses them; both change together in a benchmark change
    "cli.cmd_extremal",
}


def _reads_held(node) -> bool:
    """node is obj.attr or obj.attr[i] for a held attribute."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in HELD_ATTRS


def _held_names(target, it) -> set:
    """Names a loop target takes from a held attribute: the whole target
    when the iterable is one, else the matching element of a zip or the
    second element of an enumerate."""
    if _reads_held(it):
        return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    if isinstance(target, ast.Tuple) and isinstance(it, ast.Call) \
            and getattr(it.func, "id", None) in ("zip", "enumerate"):
        args = it.args if it.func.id == "zip" else [None, *it.args]
        return set().union(*(_held_names(t, v) for t, v in zip(target.elts, args)
                             if v is not None))
    return set()


def _mpf_calls(tree):
    """(line, argument) of each one-argument mp.mpf call under tree."""
    for node in ast.walk(tree):
        f = getattr(node, "func", None)
        if (isinstance(f, ast.Attribute) and f.attr == "mpf"
                and isinstance(f.value, ast.Name) and f.value.id == "mp"
                and len(node.args) == 1):
            yield node.lineno, node.args[0]


def _rerounds(src: Path) -> List[str]:
    """'module.function:line' for each mp.mpf of a held number: obj.attr,
    obj.attr[i], or a name bound by a for loop or comprehension over one."""
    found = []
    comps = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        units = []
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((f"{path.stem}.{top.name}", top))
            elif isinstance(top, ast.ClassDef):
                units += [(f"{path.stem}.{top.name}.{fn.name}", fn) for fn in top.body
                          if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for qualname, fn in units:
            sites = [line for line, x in _mpf_calls(fn) if _reads_held(x)]
            for node in ast.walk(fn):
                loops = node.generators if isinstance(node, comps) \
                    else [node] if isinstance(node, ast.For) else []
                scope = node.body if isinstance(node, ast.For) else [node]
                for loop in loops:
                    names = _held_names(loop.target, loop.iter)
                    sites += [line for part in scope for line, x in _mpf_calls(part)
                              if isinstance(x, ast.Name) and x.id in names]
            found += [f"{qualname}:{line}" for line in sorted(sites)]
    return found


def test_no_reader_rerounds_a_held_number():
    found = _rerounds(SRC)
    assert {site.split(":")[0] for site in found} == REROUNDS_ALLOWED, found
