"""Unit tests for confluent divided differences."""

from math import factorial

import pytest
from mpmath import mp

from hardyz import divided_diff
from hardyz.divided_diff import (FunctionProbe, NodeMultiset, divided_difference,
                                 divided_difference_data, divided_difference_simplex,
                                 hermite_weights)
from hardyz.precision import working_precision
from hardyz.probes import (cosine_probe, gaussian_cosine_probe, monomial_probe,
                           polynomial_probe)

PREC = 192
TOL = mp.mpf(2) ** (-(PREC - 40))


def exp_probe(prec):
    """exp, which is its own derivative of every order, at prec bits."""
    def deriv(x, k):
        with working_precision(prec):
            return mp.exp(mp.mpf(x))

    return FunctionProbe(deriv=deriv)


def test_square_over_three_distinct_nodes():
    probe = monomial_probe(2, prec=PREC)
    dd = divided_difference(probe, NodeMultiset([0, 1, 2]), prec=PREC)
    assert abs(dd - 1) < TOL


def test_exp_triple_node_at_zero():
    dd = divided_difference(exp_probe(prec=PREC), NodeMultiset([0, 0, 0]), prec=PREC)
    with working_precision(PREC):
        assert abs(dd - mp.mpf(0.5)) < TOL


def test_cubic_top_coefficient():
    probe = monomial_probe(3, prec=PREC)
    dd = divided_difference(probe, NodeMultiset([-1, 0, 0.5, 2]), prec=PREC)
    assert abs(dd - 1) < TOL


def test_low_degree_annihilation():
    probe = polynomial_probe([3, -2, 5], prec=PREC)
    dd = divided_difference(probe, NodeMultiset([0, 0, 1, 1, 2]), prec=PREC)
    assert abs(dd) < TOL


def test_confluent_is_limit_of_clusters():
    probe = exp_probe(prec=PREC)
    exact = divided_difference(probe, NodeMultiset([0, 0, 1]), prec=PREC)
    with working_precision(PREC):
        eps = mp.mpf(2) ** -60
        near = divided_difference(probe, NodeMultiset([0, eps, 1]), prec=PREC)
        assert abs(exact - near) < mp.mpf(2) ** -55


def test_hermite_weights_pinned_cases():
    w = {(mp.mpf(z), i): wt for z, i, wt in
         hermite_weights(NodeMultiset([0, 1]), prec=PREC)}
    assert abs(w[(mp.mpf(0), 0)] + 1) < TOL
    assert abs(w[(mp.mpf(1), 0)] - 1) < TOL

    w = {(mp.mpf(z), i): wt for z, i, wt in
         hermite_weights(NodeMultiset([0, 0]), prec=PREC)}
    assert abs(w[(mp.mpf(0), 0)]) < TOL
    assert abs(w[(mp.mpf(0), 1)] - 1) < TOL

    w = {(mp.mpf(z), i): wt for z, i, wt in
         hermite_weights(NodeMultiset([0, 0, 1]), prec=PREC)}
    assert abs(w[(mp.mpf(1), 0)] - 1) < TOL
    assert abs(w[(mp.mpf(0), 0)] + 1) < TOL
    assert abs(w[(mp.mpf(0), 1)] + 1) < TOL


def test_hermite_weights_reproduce_divided_difference():
    probe = exp_probe(prec=PREC)
    nodes = NodeMultiset([-0.5, 0, 0, 0.75, 0.75, 0.75])
    dd = divided_difference(probe, nodes, prec=PREC)
    with working_precision(PREC):
        acc = mp.mpf(0)
        for z, i, wt in hermite_weights(nodes, prec=PREC):
            acc += wt * mp.mpf(probe.deriv(z, i))
        assert abs(acc - dd) < TOL


def test_mean_value_bracket():
    probe = exp_probe(prec=PREC)
    nodes = NodeMultiset([0, 0.3, 0.3, 1])
    # (N-1)! f[nodes] = f^(N-1)(eta) for some eta in the node hull
    dd = divided_difference(probe, nodes, prec=PREC)
    with working_precision(PREC):
        w = factorial(len(nodes) - 1) * dd
        assert mp.exp(0) <= w <= mp.exp(1)


# exp has no majorant on a strip (|exp z| grows with Re z), so the simplex
# refuses it; the gaussian cosine takes its place
ORACLE_PROBES = {"gaussian_cosine": lambda prec: gaussian_cosine_probe(0.8, 2.0, prec=prec),
                 "cosine": lambda prec: cosine_probe(1.3, prec=prec),
                 "monomial": lambda prec: monomial_probe(3, prec=prec)}


def _oracle_tol(prec):
    # the check verify-lemmas makes of the oracle
    return mp.mpf(2) ** -(prec - 48)


@pytest.mark.parametrize("prec", [64, 128, 192])
@pytest.mark.parametrize("probe", ORACLE_PROBES)
def test_simplex_oracle_agrees(probe, prec):
    f = ORACLE_PROBES[probe](prec)
    for nodes in (NodeMultiset([0, 0.5, 1]), NodeMultiset([-1, 0.25])):
        exact = divided_difference(f, nodes, prec=prec)
        assert abs(exact - divided_difference_simplex(f, nodes, prec=prec)) \
            < _oracle_tol(prec)


def test_simplex_oracle_rounds_its_nodes_at_its_own_precision():
    # nodes held at 192 bits: rounding them at the 53 bits a library caller
    # runs at would move the integrand's points by ~1e-17
    with working_precision(PREC):
        nodes = NodeMultiset([mp.mpf(1) / 3, mp.mpf(2) / 3, mp.mpf(5) / 7])
    probe = monomial_probe(3, prec=PREC)
    outside = divided_difference_simplex(probe, nodes, prec=PREC)
    with working_precision(PREC):
        inside = divided_difference_simplex(probe, nodes, prec=PREC)
    assert outside == inside


@pytest.mark.parametrize("prec", [64, 128, 192])
@pytest.mark.parametrize("probe", ORACLE_PROBES)
def test_simplex_oracle_is_within_its_bound_of_the_triangle(probe, prec):
    # the triangle at twice the precision; the rule's own rounding adds a
    # few units of 2^-P to its truncation bound (2^-(P-8) allowed)
    for nodes in (NodeMultiset([0, 0.5, 1]), NodeMultiset([-1, 0.25]),
                  NodeMultiset([-1, 0.25, 1])):
        f = ORACLE_PROBES[probe](prec)
        value = divided_difference_simplex(f, nodes, prec=prec)
        exact = divided_difference(ORACLE_PROBES[probe](2 * prec), nodes, prec=2 * prec)
        with working_precision(prec):
            span = float(nodes.nodes[-1] - nodes.nodes[0])
            _, log_bound = divided_diff._simplex_rule(f, span, len(nodes) - 1)
            allowance = mp.mpf(2) ** -(mp.prec - 8)
        with working_precision(2 * prec):
            assert abs(value - exact) <= mp.exp(log_bound) + allowance


def test_simplex_oracle_refuses_a_probe_without_a_majorant():
    with pytest.raises(ValueError, match="no majorant"):
        divided_difference_simplex(exp_probe(64), NodeMultiset([0, 0.5, 1]), prec=64)


@pytest.mark.parametrize("prec", [128, 192])
def test_simplex_oracle_sees_a_node_moved_by_2_to_the_minus_40(prec):
    probe = ORACLE_PROBES["gaussian_cosine"](prec)
    exact = divided_difference(probe, NodeMultiset([0, 0.5, 1]), prec=prec)
    moved = NodeMultiset([0, 0.5, 1 + mp.mpf(2) ** -40])
    assert abs(exact - divided_difference_simplex(probe, moved, prec=prec)) \
        > _oracle_tol(prec)


def test_simplex_oracle_refuses_order_3():
    with pytest.raises(ValueError):
        divided_difference_simplex(exp_probe(64), NodeMultiset([0, 0.25, 0.5, 1]), prec=64)


def test_multiset_sorts_its_nodes_exactly():
    # 1 + 2^-70 rounds to 1 at 53 bits; sorting by that key kept the input
    # order and split the double node 1
    with working_precision(PREC):
        above = 1 + mp.mpf(2) ** -70
        ref = NodeMultiset([1, 1, above])
    nodes = NodeMultiset([1, above, 1])
    assert nodes.nodes == [1, 1, above]
    assert nodes.grouped() == [(1, 2), (above, 1)]
    data = lambda y, i: mp.exp(y)
    assert divided_difference_data(nodes, data, prec=PREC) \
        == divided_difference_data(ref, data, prec=PREC)
