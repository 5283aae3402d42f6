"""Seeded input generation for the four benchmark workloads.

Everything here runs in the runner process (run.py) and uses only the
standard library and mpmath, never hardyz: the program under test receives
the generated inputs (plain numbers and CLI argument lists) and nothing else.

A run is a fixed list of operations built from whole *rounds*.  Every round
of a workload has the same composition (the same cells of size parameters),
and the seed draws the continuous inputs inside each cell.  The number of
rounds is set from the requested run length by the workload's nominal round
cost, so every run of a workload does the same amount of work whatever the
seed, and the traced run's counts repeat exactly.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from mpmath import mp

# Nominal seconds per round on the reference machine (2-core x86 box,
# Python 3.11, mpmath 1.3.0 with the pure-Python backend) at the commit that
# added the benchmark, counting each workload's one-off first operation.  A
# run holds as many rounds as fit in its seconds; they are never reported.
NOMINAL_ROUND_S = {
    "identity": 12.0,
    "zeros": 20.0,
    "certificate": 16.0,
    "explore": 16.0,
}

PRECISION_BITS = {"identity": 192, "zeros": 128, "certificate": 192,
                  "explore": 64}

UNIT = {"identity": "cases", "zeros": "zeros located",
        "certificate": "certificates", "explore": "reports"}

PAPER_TUPLE = ("12", "0.95", "0.65", "30")

ZERO_STRATA = tuple((200 + 800 * i / 11, 200 + 800 * (i + 1) / 11)
                    for i in range(11))
ZERO_WINDOW_GRAM_INTERVALS = 1
EXPLORE_T_RANGE = (55.0, 65.0)

# cardinal cases per round by n = 1..5: the n = 4 class holds the run's
# median operation, near its middle
CARDINAL_PER_ROUND = (6, 6, 6, 18, 4)
# early-exit certificates per round, n cycling through 10..16
EARLY_EXIT_PER_ROUND = 12


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_ROUND_S[workload]))


def build(workload: str, seed: int, rounds: int) -> Dict:
    """The input spec of one run: {"workload", "prec", "ops": [...]}."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    ops = _GENERATORS[workload](rng, rounds)
    return {"workload": workload, "seed": seed, "rounds": rounds,
            "prec": PRECISION_BITS[workload], "unit": UNIT[workload],
            "ops": ops}


# ---------------------------------------------------------------------------
# identity: key-identity cases (criterion-01 generator) mixed with cardinal
# reconstruction cases (criterion-02 generator)

_PROBE_KINDS = ("polynomial", "cosine", "gaussian-cosine")


def _random_config(rng: random.Random, n: int, a: float = None) -> Dict:
    """Same draw as hardyz.kernel.random_config, kept as plain floats."""
    min_gap = 0.05
    a = 2 + 4 * rng.random() if a is None else a
    pos = sorted(rng.uniform(min_gap, 0.95) for _ in range(n))
    neg = sorted(rng.uniform(min_gap, 0.95) for _ in range(n))
    for side in (pos, neg):
        for i in range(1, n):
            if side[i] - side[i - 1] < min_gap:
                side[i] = side[i - 1] + min_gap
        if side[-1] > 0.97:
            scale = 0.97 / side[-1]
            side[:] = [v * scale for v in side]
    return {"n": n, "a": a, "pos": pos, "neg": neg}


def _key_case(rng: random.Random, kind: str, n: int, m: int,
              strata: Tuple[int, int, int] = None) -> Dict:
    """One criterion-01 case.

    With strata = (a, b, width) stratum indices, a, b and the gaussian
    width are drawn inside that quarter (a: twelfth) of their criterion-01
    range, and a polynomial probe gets a degree below 2m.  Without, the
    draw is criterion 01's own.
    """
    def draw(lo, hi, which, parts):
        if strata is None:
            return rng.uniform(lo, hi)
        return lo + (hi - lo) * (strata[which] + rng.random()) / parts

    a = None if strata is None else draw(2, 6, 0, 12)
    op = {"class": f"key-{kind}", "n": n, "m": m,
          "config": _random_config(rng, n, a),
          "mu": [rng.uniform(-1, 1) for _ in range(2 * n)]}
    if kind == "polynomial":
        deg = rng.randint(3, 2 * m + 3) - 1 if strata is None \
            else rng.randint(2, 2 * m - 1)
        op["coeffs"] = [rng.uniform(-1, 1) for _ in range(deg + 1)]
    elif kind == "cosine":
        op["b"] = draw(0.2, 1.5, 1, 4)
    else:
        op["b"] = draw(0.3, 1.0, 1, 4)
        op["width"] = draw(2, 5, 2, 4)
    return op


def _criterion01_case(index: int) -> Dict:
    """Case `index` of acceptance criterion 01's own seeded stream."""
    rng = random.Random(101)
    for case in range(index + 1):
        n, m = rng.randint(1, 4), rng.randint(1, 10)
        op = _key_case(rng, _PROBE_KINDS[case % 3], n, m)
    op["class"] = "key-polynomial-quadrature"
    return op


def _identity_ops(rng: random.Random, rounds: int) -> List[Dict]:
    # A polynomial probe of degree >= 2m has a non-zero integral term, and
    # mp.quad's absolute convergence test then runs some panels to its
    # highest degree and not others: the cost of one such case swings from
    # 0.1 s to 7 s with the coefficient draw.  Seeded, they would make a
    # run's total depend on the seed more than on the program, so the run
    # opens with a fixed one, criterion 01's case 9 (n=1, m=2, degree 5),
    # which also pays the process's one-off Gauss-Legendre node set-up.
    # The seeded polynomial cases have degree < 2m.
    ops = [_criterion01_case(9)]
    for r in range(rounds):
        keys = []
        for i in range(12):
            kind = _PROBE_KINDS[i % 3]
            m = 1 + (7 * r + 3 * i) % 10
            if kind == "polynomial":
                m = max(m, 2)
            # a, b and the width drive how far the quadrature refines, so
            # each cell keeps its stratum of them whatever the seed
            strata = ((5 * i + 7 * r) % 12, (i // 3 + r) % 4,
                      (i // 3 + 2 * r + 1) % 4)
            keys.append(_key_case(rng, kind, 1 + i // 3, m, strata))
        # criterion 02: n in 1..5 with m = n + 1.  The cost of a cardinal
        # case grows with n and a, so a is drawn inside the j-th of
        # CARDINAL_PER_ROUND[n - 1] equal parts of [2, 6]
        cards = []
        for j in range(max(CARDINAL_PER_ROUND)):
            for cn, count in enumerate(CARDINAL_PER_ROUND, start=1):
                if j < count:
                    a = 2 + 4 * (j + rng.random()) / count
                    cards.append({"class": f"cardinal-n{cn}", "n": cn,
                                  "m": cn + 1,
                                  "config": _random_config(rng, cn, a)})
        for i, key in enumerate(keys):
            ops.append(key)
            ops.extend(cards[(len(cards) * i) // 12:
                             (len(cards) * (i + 1)) // 12])
    return ops


# ---------------------------------------------------------------------------
# zeros: windows of one Gram interval (one mean gap) holding one zero, one
# window per height stratum in every round


def _zeros_ops(rng: random.Random, rounds: int) -> List[Dict]:
    ops = []
    with mp.workdps(25):
        for _ in range(rounds):
            for lo_h, hi_h in ZERO_STRATA:
                j_lo = int(mp.ceil(mp.siegeltheta(lo_h) / mp.pi)) + 1
                j_hi = int(mp.floor(mp.siegeltheta(hi_h) / mp.pi)) \
                    - ZERO_WINDOW_GRAM_INTERVALS - 1
                while True:
                    j = rng.randint(j_lo, j_hi)
                    lo = float(mp.grampoint(j))
                    hi = float(mp.grampoint(j + ZERO_WINDOW_GRAM_INTERVALS))
                    # the windows hold exactly as many zeros as Gram
                    # intervals, so each operation locates the same number
                    count = int(mp.nzeros(lo)), int(mp.nzeros(hi))
                    if count[1] - count[0] == ZERO_WINDOW_GRAM_INTERVALS:
                        break
                ops.append({"class": f"height-{lo_h:.0f}", "lo": repr(lo),
                            "hi": repr(hi)})
    return ops


# ---------------------------------------------------------------------------
# certificate: per round one full-scan certificate (the paper tuple in the
# first round, then eps from [0.5, 0.69]) and EARLY_EXIT_PER_ROUND
# early-exit ones (eps from [0.05, 0.1]), every eps distinct


def _certificate_ops(rng: random.Random, rounds: int) -> List[Dict]:
    ops = []
    seen = {PAPER_TUPLE[2]}

    def distinct_eps(lo: float, hi: float) -> str:
        while True:
            eps = f"{rng.uniform(lo, hi):.6f}"
            if eps not in seen:
                seen.add(eps)
                return eps

    def tuple_for(n: int, eps: str) -> List[str]:
        c = rng.uniform(0.9, 1 - 1 / (2 * n))
        m = math.ceil(n * math.log(n)) + rng.randint(0, 10)
        return [str(n), f"{c:.6f}", eps, str(m)]

    for r in range(rounds):
        # a full-scan certificate costs some 30 early-exit ones, so a round
        # holds one of them, with n cycling through 13, 16, 12, ... after
        # the paper tuple.  eps must stay below log 2 = 0.6931..., where the
        # CLI refuses it as a usage error, so the full-scan range stops at
        # 0.69
        if r == 0:
            full = {"class": "full-scan", "args": list(PAPER_TUPLE),
                    "paper": True}
        else:
            full = {"class": "full-scan",
                    "args": tuple_for(10 + (3 * r) % 7,
                                      distinct_eps(0.5, 0.69))}
        early = [{"class": "early-exit",
                  "args": tuple_for(10 + i % 7, distinct_eps(0.05, 0.1))}
                 for i in range(EARLY_EXIT_PER_ROUND)]
        ops.extend([full] + early)
    return ops


# ---------------------------------------------------------------------------
# explore: one report per operation at a seeded height


def _explore_ops(rng: random.Random, rounds: int) -> List[Dict]:
    return [{"class": "report",
             "args": [f"{rng.uniform(*EXPLORE_T_RANGE):.6f}", "0.3", "2"]}
            for _ in range(rounds)]


_GENERATORS = {"identity": _identity_ops, "zeros": _zeros_ops,
             "certificate": _certificate_ops, "explore": _explore_ops}

WORKLOADS = tuple(_GENERATORS)
