"""Shared arbitrary-precision substrate.

One precision policy.  A public function (or a CLI command) takes a
``prec`` in bits (default 192) and opens working_precision(prec) once;
everything it calls runs at the ambient mp.prec, and private helpers never
set a precision of their own.  Extra bits come only from named module-level
constants, each with its reason, added relative to the ambient precision
(mp.extraprec) or to the caller's ``prec``.  Objects that keep their own
``prec`` (compiled kernels, probes, ExtremalParams) are entry points too,
because callers use them outside any working precision.

Reports are serialized here as well, by one rule: an mpf prints with
digits_for(prec) significant digits of its own bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from mpmath import mp, mpf

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
