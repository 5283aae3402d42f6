"""Shared arbitrary-precision substrate.

All numeric routines in this package take an explicit ``prec`` argument in
bits (default 192) and evaluate under an mpmath working-precision context.
Guard bits are added internally; results are returned as mpf/mpc values
rounded at the working precision of the caller's context.

Reports are serialized here as well, by one rule: an mpf prints with
digits_for(prec) significant digits of its own bits.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from mpmath import mp, mpf

DEFAULT_PREC = 192
GUARD_BITS = 16

MIN_PREC = 64


@contextmanager
def working_precision(prec: int, guard: int = GUARD_BITS):
    """Context manager setting mp.prec to prec + guard bits."""
    if prec < MIN_PREC:
        raise ValueError(f"precision must be >= {MIN_PREC} bits, got {prec}")
    old = mp.prec
    mp.prec = prec + guard
    try:
        yield mp
    finally:
        mp.prec = old


def to_mpf(x, prec: int = DEFAULT_PREC) -> mpf:
    """Convert x (int, float, str, Fraction, mpf) to mpf at the given precision."""
    with working_precision(prec):
        if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(x, int):
            return mpf(x.numerator) / mpf(x.denominator)
        return mpf(x)


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


class Report:
    """Base of the report dataclasses with a to_json: serialize() as text."""

    def to_json(self, prec: int = DEFAULT_PREC) -> str:
        return json.dumps(serialize(self, prec), sort_keys=True, indent=2)
