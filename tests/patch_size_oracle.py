"""The reference for hardy._TaylorPatches._size: a walk up the majorant
radii R_j, j = 1..15, that stops after two radii which do not lower M, with
a linear walk over the even M at each.  tests/test_hardy.py checks that the
bracketing search finds the same M, bits and R."""

import math


def walk_points(patches, log_budget, R, log_a):
    """The smallest even M > kmax + 1 whose aliasing and truncation take a
    quarter of the budget, tried one even M after the other."""
    kmax = patches._orders[-1]
    M = kmax + 2 + kmax % 2
    while any(patches._log_series(k, M, R, log_a) > log_budget - 2 * math.log(2)
              for k in patches._orders):
        M += 2
    return M


def walk_size(patches, log_budget, log_majorant):
    """(M, bits, R) as the walk sizes patches for the budget e^log_budget;
    log_majorant(c, R) is z_log_majorant's bound, so the caller can count
    the radii the walk asks for."""
    best, worse = None, 0
    for j in range(1, 16):
        R = patches._r * (patches._reach / patches._r) ** (j / 16)
        M = walk_points(patches, log_budget, R, log_majorant(patches._far, R))
        if best is None or M < best[0]:
            best, worse = (M, R), 0
        else:
            worse += 1
            if worse == 2:
                break
    R = best[1]
    M = walk_points(patches, log_budget, R,
                    max(log_majorant(c, R) for c in patches._centres))
    N = patches._terms(M)
    log_unit = math.log((patches._ulps + 3 * N + 8) * (patches._m + 2))
    bits = max(math.ceil((patches._log_gain(k) + log_unit + 3 * math.log(2)
                          - log_budget) / math.log(2)) for k in patches._orders)
    return M, bits, R
