"""The reference for enclose._psi_series: the same quotient recursion in
mpf, at a precision the caller chooses."""

from mpmath import mp

from hardyz.enclose import PSI_TERMS


def psi_series_mpf(bits: int):
    """(a, b) of enclose._psi_series, each coefficient the float of an mpf
    recursion run at `bits`.  The recursion loses about 5 bits a term, so
    `bits` must leave a_40 (about 2^-71) well over 53 bits."""
    with mp.workprec(bits):
        two_pi = 2 * mp.pi
        shift = 5 * mp.pi / 8
        phase = (mp.cos(shift), mp.sin(shift))
        num, den = [], []
        for j in range(PSI_TERMS + 2):
            # cos(2pi y - s) = cos(2pi y) cos s + sin(2pi y) sin s, term y^j
            num.append(-(-1) ** (j // 2) * two_pi ** j / mp.factorial(j)
                       * phase[j % 2])
            den.append((-1) ** j * two_pi ** (2 * j) / mp.factorial(2 * j))
        a = []
        for j in range(PSI_TERMS + 2):
            a.append((num[j] - mp.fsum(a[i] * den[j - i] for i in range(j)))
                     / den[0])
        scale = -1 / (96 * mp.pi ** 2)
        b = [a[j + 2] * (2 * j + 4) * (2 * j + 3) * (2 * j + 2) * scale
             for j in range(PSI_TERMS)]
        return [float(v) for v in a[:PSI_TERMS]], [float(v) for v in b]
