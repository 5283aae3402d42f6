"""The libmp calls of the proved passes (modules zeta, theta, hardy and
probes): each libmp function the package uses is either assumed, with an
entry in precision.LIBMP_ULPS, or exact or correctly rounded; and the one
harness, measured_errors, with which test_zeta, test_theta and test_identity
measure every call of an assumed function their workloads make against the
same call at 2 wp."""

import ast
import types
from pathlib import Path

from mpmath import libmp

from hardyz import hardy, probes, theta, zeta
from hardyz.precision import LIBMP_ULPS
from hardyz.theta import JET_GUARD_BITS

SRC = Path(__file__).resolve().parent.parent / "src" / "hardyz"
# libmp names that add no error of their own: constants, conversions, and
# arithmetic rounded once in the direction asked
EXACT = {"fone", "fzero", "round_ceiling", "from_float", "from_int", "from_man_exp", "to_fixed",
         "to_float", "mpf_add", "mpf_sub", "mpf_mul", "mpf_div", "mpf_neg", "mpf_shift"}


def _libmp_names(path: Path) -> set:
    """The libmp names a module reads: libmp.<name>, and the names it
    imports from mpmath.libmp."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "libmp":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath.libmp"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_libmp_function_used_is_assumed_or_exact():
    # enclose is left out: its one fixed-point series, _psi_series, has its
    # own oracle test
    unknown = sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py") if path.stem != "enclose"
                     for name in _libmp_names(path) - set(LIBMP_ULPS) - EXACT)
    assert not unknown


def _recorder(calls: dict):
    """libmp for modules zeta, theta, hardy and probes, each LIBMP_ULPS
    function, called as f(*args, wp), wrapped to keep its result in calls
    under (name, args, wp), so that a call repeated is measured once."""
    def recorded(name):
        function = getattr(libmp, name)

        def call(*args):
            calls[name, args[:-1], args[-1]] = got = function(*args)
            return got
        return call
    return types.SimpleNamespace(**{**vars(libmp), **{name: recorded(name) for name in LIBMP_ULPS}})


def _error(name: str, args: tuple, wp: int, got) -> float:
    """The call's error against the same call at 2 wp, exact, in its entry's
    unit: units of 2^-wp for each of cos and sin, else ulps at wp."""
    ref = getattr(libmp, name)(*args, 2 * wp)
    if name == "mpf_cos_sin":
        pairs, shift = zip(got, ref), wp
    else:
        _, _, exp, bc = got if got[1] else ref  # a value 0 takes its reference's ulp
        pairs, shift = [(got, ref)], wp - exp - bc
    return max(abs(libmp.to_float(libmp.mpf_shift(libmp.mpf_sub(g, r), shift))) for g, r in pairs)


def theta_read(recorder, t, prec: int, J: int) -> None:
    """The theta half of hardy._point_read(t, prec, J): theta_point at the
    read's F bits and e^(i theta) from cos_sin at its wp, through recorder."""
    bits = hardy._line_size(t, prec, J)[2]
    F = bits + JET_GUARD_BITS
    angle = theta.theta_point(t, F)[0]
    recorder.mpf_cos_sin(libmp.from_man_exp(angle, -F), bits + zeta.PHASE_GUARD_BITS)


def measured_errors(monkeypatch, workload) -> dict:
    """Run workload(recorder) with the libmp of zeta, theta, hardy and probes
    replaced by one recorder (fresh zeta._PRIMES, theta._pi_and_log_pi's
    cache cleared, so cached constants are computed again), and return the
    largest error of each LIBMP_ULPS function it called, each distinct call
    measured once; the reference's own error, about 2^-2wp, is far below a
    unit at wp."""
    calls = {}
    recorder = _recorder(calls)
    for module in (zeta, theta, hardy, probes):
        monkeypatch.setattr(module, "libmp", recorder)
    monkeypatch.setattr(zeta, "_PRIMES", zeta._PrimeTable())  # log p is cached per table
    theta._pi_and_log_pi.cache_clear()
    workload(recorder)
    worst = {}
    for (name, args, wp), got in calls.items():
        worst[name] = max(worst.get(name, 0.0), _error(name, args, wp, got))
    return worst


def over_assumed(worst: dict) -> dict:
    """The measured errors above their LIBMP_ULPS entries."""
    return {name: error for name, error in worst.items() if error > LIBMP_ULPS[name]}
