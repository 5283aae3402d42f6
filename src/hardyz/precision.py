"""Shared arbitrary-precision substrate.

One precision policy.  A public function (or a CLI command) takes a
``prec`` in bits (default 192) and opens working_precision(prec) once;
everything it calls runs at the ambient mp.prec, and private helpers never
set a precision of their own.  Extra bits come only from named module-level
constants, each with its reason, added relative to the ambient precision
(mp.extraprec) or to the caller's ``prec``.  Objects that keep their own
``prec`` (compiled kernels, probes, ExtremalParams) are entry points too,
because callers use them outside any working precision.  A number is rounded
once, where it is stored: value objects hold theirs as mpf from construction
(held), readers use them as stored, and only arguments coming in are rounded
at the working precision.

Reports are serialized here as well, by one rule: an mpf prints with
digits_for(prec) significant digits of its own bits.  The one sign-change
finder, refine_sign_change, lives here too: find_zeros refines Z's zeros
with it and find_c_eps the edge of the range where h < 0.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Callable, Tuple

from mpmath import libmp, mp, mpf

DEFAULT_PREC = 192
GUARD_BITS = 16  # working_precision(prec) runs above prec, so rounding adds no error

MIN_PREC = 64


@contextmanager
def working_precision(prec: int):
    """Context manager setting mp.prec to prec + GUARD_BITS.

    Opened once by each entry point; what runs inside inherits mp.prec.
    """
    if prec < MIN_PREC:
        raise ValueError(f"precision must be >= {MIN_PREC} bits, got {prec}")
    old = mp.prec
    mp.prec = prec + GUARD_BITS
    try:
        yield mp
    finally:
        mp.prec = old


def held(v) -> mpf:
    """v as a value object stores it, at no precision of the caller's: v itself
    if it is an mpf, else the exact value of an int of any size or a float.
    Anything else, a decimal string say, has no exact binary value and is a
    TypeError; the caller rounds it first, at its working precision."""
    if isinstance(v, mpf):
        return v
    if isinstance(v, int):
        return mp.make_mpf(libmp.from_int(v))
    if isinstance(v, float):
        return mp.make_mpf(libmp.from_float(v))
    raise TypeError(f"cannot hold {v!r} exactly: pass an mpf, an int or a float")


def digits_for(prec: int) -> int:
    """Decimal digits needed to round-trip a prec-bit float."""
    return int(prec * 0.302) + 1


def serialize(value, prec: int):
    """The JSON-ready form of a report or of any value inside one.

    A dataclass becomes a dict of its fields, lists and tuples are mapped
    element-wise, and an mpf becomes mp.nstr(v, digits_for(prec)) of the
    value as it is, never re-rounded at the ambient precision.  Ints, bools,
    strings and None pass through unchanged.
    """
    if isinstance(value, mpf):
        return mp.nstr(value, digits_for(prec))
    if is_dataclass(value):
        return {f.name: serialize(getattr(value, f.name), prec)
                for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [serialize(v, prec) for v in value]
    return value


def refine_sign_change(f: Callable, lo, hi, flo, fhi, half_width) -> Tuple[mpf, mpf]:
    """The final (lo, hi) of a sign-change bracket of f inside [lo, hi] with
    (hi - lo)/2 <= half_width, or (x, x) at an exact zero x.

    flo = f(lo) and fhi = f(hi) have opposite signs.  Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971): each step evaluates the secant point,
    held at least half_width inside each end so that a step landing next to
    the zero lets the next one close the bracket from the far side.  When
    the same end moves twice in a row, the value stored at the end that
    stayed is halved.  When the last three steps have not shrunk the bracket
    to a quarter, a bisection step is taken instead, which keeps a flat or
    steep f within about twice the evaluations of plain bisection.  Runs at
    the ambient precision.
    """
    moved = None                # which end the last step replaced
    widths = [mp.inf] * 3       # bracket widths before the last three steps
    while (hi - lo) / 2 > half_width:
        if hi - lo > widths[0] / 4:
            x = (lo + hi) / 2
        else:
            x = lo - flo * (hi - lo) / (fhi - flo)
            x = min(max(x, lo + half_width), hi - half_width)
        widths = widths[1:] + [hi - lo]
        fx = f(x)
        if fx == 0:
            return x, x
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
            if moved == "lo":
                fhi /= 2
            moved = "lo"
        else:
            hi, fhi = x, fx
            if moved == "hi":
                flo /= 2
            moved = "hi"
    return lo, hi
