"""The report serializer."""

from dataclasses import dataclass
from typing import List, Optional

from mpmath import mp, mpf

from hardyz.precision import Report, digits_for, serialize, working_precision


@dataclass
class _Row:
    k: int
    value: mpf


@dataclass
class _Report(Report):
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
    assert rep.to_json(prec).startswith('{\n  "best": null,')
