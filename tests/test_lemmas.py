"""The verify-lemmas suites: which checks each one runs, and in what order."""

from hardyz.lemmas import SUITES, run_suites

CHECKS = {
    "polynomials": ["bernoulli-number-values", "bernoulli-poly-symmetry",
                    "chebyshev-high-derivative-at-one",
                    "bernoulli-fourier-partial-sum"],
    "divided_diff": ["top-monomial-divided-difference", "low-degree-annihilation",
                     "confluent-matches-cluster-limit", "hermite-weights-reproduce",
                     "hermite-genocchi-oracle"],
    "kernel": ["alpha-zero-sum", "vanishing-moments", "series-vs-direct",
               "boundary-sign-property", "boundary-monotonicity",
               "confluent-boundary-extension", "boundary-sum-inequality"],
    "identity": ["key-identity-residual", "cardinal-reconstruction",
                 "telescoping-top-derivative"],
    "sequences": ["b-first-row-exact", "g-first-row-is-one",
                  "closed-form-rational-sum-zero", "e-coefficients-positive",
                  "d2-limit-within-1pct", "d3-below-limit-increasing",
                  "tail-weight-dominated-by-n10",
                  "tail-weight-constant-bounds-the-sum"],
    "extremal": ["equal-angle-weight-formula", "log-sine-integral-dual-route",
                 "hypergeometric-coefficient-signs", "extremal-grid-bounds",
                 "divided-bound-dual-route", "theorem2-certificate-total"],
}


def test_every_suite_runs_its_checks_in_order():
    report = run_suites(list(SUITES), seed=7, prec=64)
    assert {s["suite"]: [c["name"] for c in s["checks"]]
            for s in report["suites"]} == CHECKS
    assert list(SUITES) == list(CHECKS)
    assert sum(map(len, CHECKS.values())) == 33
