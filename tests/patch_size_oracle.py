"""The reference for hardy._TaylorPatches._size: a walk up the majorant
radii R_j, j = 1..15, that stops after two radii which do not lower J, with
a linear walk over J at each.  tests/test_hardy.py checks that the
bracketing search finds the same J, bits and R."""

import math


def walk_terms(patches, log_budget, R, log_a):
    """The least J > kmax whose truncation takes a quarter of the budget,
    tried one J after the other."""
    J = patches._orders[-1] + 1
    while any(patches._log_truncation(k, J, R, log_a) > log_budget - 2 * math.log(2)
              for k in patches._orders):
        J += 1
    return J


def walk_size(patches, log_budget, log_majorant):
    """(J, bits, R) as the walk sizes patches for the budget e^log_budget;
    log_majorant(c, R) is z_log_majorant's bound, so the caller can count
    the radii the walk asks for.  The bits are the program's for that J."""
    best, worse = None, 0
    for j in range(1, 16):
        R = patches._r * (patches._reach / patches._r) ** (j / 16)
        J = walk_terms(patches, log_budget, R, log_majorant(patches._far, R))
        if best is None or J < best[0]:
            best, worse = (J, R), 0
        else:
            worse += 1
            if worse == 2:
                break
    R = best[1]
    J = walk_terms(patches, log_budget, R,
                   max(log_majorant(c, R) for c in patches._centres))
    return J, patches._bits(log_budget, J), R
