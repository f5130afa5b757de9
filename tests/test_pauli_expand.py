"""Qubit route: permutations as Pauli combinations."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from snsim.errors import ResourceLimitError
from snsim.group_algebra import algebra_element, pi_tilde_dense, random_hermitian_k_local
from snsim.lcu import matrix_element
from snsim.pauli_expand import (
    PauliString,
    binomial_identity_check,
    closed_form_pauli_gates,
    element_to_pauli,
    matrix_element_pauli,
    multiply_strings,
    multiply_sums,
    pauli_identity,
    pauli_sum,
    permutation_to_pauli,
    string_dense,
    string_index_phase,
    sum_dense,
    transposition_to_pauli,
)
from snsim.permutation import enumerate_sn, locality, parse_permutation, transposition
from snsim.quditsim import (
    basis_state,
    exact_matrix_element,
    irrep_matrix_element,
    permutation_matrix,
    young_basis,
    young_vector,
    young_vectors,
)
from snsim.young import Partition

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(n, by_site):
    out = np.eye(1, dtype=complex)
    for q in range(1, n + 1):
        out = np.kron(out, SINGLE[by_site.get(q, "I")])
    return out


def string(n, label):
    """The PauliString written by letters such as "X1 Y3"; "" is the identity."""
    x = z = 0
    for word in label.split():
        bit = 1 << (n - int(word[1:]))
        x |= bit if word[0] in "XY" else 0
        z |= bit if word[0] in "YZ" else 0
    return PauliString(n, x, z)


def labelled_strings(n):
    """Every string on n qubits with its site -> letter map."""
    for letters in itertools.product("IXYZ", repeat=n):
        by_site = dict(enumerate(letters, start=1))
        yield by_site, string(n, " ".join(f"{a}{q}" for q, a in by_site.items() if a != "I"))


def test_string_dense_matches_kron_oracle():
    for by_site, ps in labelled_strings(3):
        assert np.array_equal(string_dense(ps), kron_oracle(3, by_site))


def test_single_site_products_close():
    # the phase table behind multiply_strings, checked against 2x2 matrices
    for a, b in itertools.product("XYZ", repeat=2):
        phase, out = multiply_strings(string(1, f"{a}1"), string(1, f"{b}1"))
        assert np.allclose(phase * string_dense(out), SINGLE[a] @ SINGLE[b])


def test_multiply_strings_matches_dense():
    rng = np.random.default_rng(3)
    letters = ["X", "Y", "Z"]
    for _ in range(30):
        la, lb = (" ".join(f"{letters[int(i)]}{s}" for s, i in
                           zip(np.sort(rng.choice(4, 2, replace=False)) + 1, rng.integers(0, 3, 2)))
                  for _ in range(2))
        a, b = string(4, la), string(4, lb)
        phase, out = multiply_strings(a, b)
        assert np.allclose(phase * string_dense(out), string_dense(a) @ string_dense(b))
    # every pair at n = 2, exactly, against products of kron matrices
    pairs = 0
    for (sa, a), (sb, b) in itertools.product(labelled_strings(2), repeat=2):
        phase, out = multiply_strings(a, b)
        assert phase in (1, 1j, -1, -1j)
        assert np.array_equal(phase * string_dense(out), kron_oracle(2, sa) @ kron_oracle(2, sb))
        pairs += 1
    assert pairs == 256


def test_string_validation():
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)  # x past the two sites
    with pytest.raises(ValueError):
        PauliString(2, 0, 4)  # z past the two sites
    with pytest.raises(ValueError):
        PauliString(2, -1, 0)
    with pytest.raises(ValueError):
        PauliString(3, 0, -2)


def test_dense_references_refuse_past_the_cap():
    # 2^15 > DEFAULT_DENSE_CAP: refused before any array is allocated
    n = 15
    ps = string(n, "X1 Z15")
    for build in (string_dense, string_index_phase):
        with pytest.raises(ResourceLimitError):
            build(ps)
    with pytest.raises(ResourceLimitError):
        sum_dense(pauli_sum(n, {ps: 1.0}))


def test_pauli_sum_merges_and_drops():
    n = 2
    xx = string(n, "X1 X2")
    g = pauli_sum(n, [(xx, 0.5), (xx, 0.5), (pauli_identity(n), 0.0)])
    assert g.term_count == 1
    assert g.coefficient(xx) == 1.0
    h = multiply_sums(g, g)  # (XX)^2 = I
    assert h.term_count == 1 and h.coefficient(pauli_identity(n)) == 1.0


def test_transposition_is_the_exchange_gate():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                dense = sum_dense(transposition_to_pauli(n, i, j))
                assert np.allclose(dense, permutation_matrix(transposition(n, i, j), 2))
    with pytest.raises(ValueError):
        transposition_to_pauli(3, 2, 2)


def test_permutation_to_pauli_exact_small_group():
    for p in enumerate_sn(4):
        dense = sum_dense(permutation_to_pauli(p))
        assert np.max(np.abs(dense - permutation_matrix(p, 2))) <= 1e-12, p


def test_one_norm_bound_and_hermitian_reality():
    for p in enumerate_sn(5):
        g = permutation_to_pauli(p)
        assert g.one_norm <= 2.0 ** (locality(p) - 1) + 1e-12 or p.is_identity()
    # involutions expand with real coefficients
    for p in [transposition(4, 1, 3), parse_permutation("(1 2)(3 4)")]:
        g = permutation_to_pauli(p)
        assert all(abs(c.imag) <= 1e-12 for _, c in g.terms)


def test_cycle_one_norm_saturates_bound():
    # a k-cycle's expansion meets 2^(k-1) exactly
    for k in (2, 3, 4, 5):
        cyc = parse_permutation("(" + " ".join(str(i) for i in range(1, k + 1)) + ")")
        g = permutation_to_pauli(cyc)
        assert abs(g.one_norm - 2.0 ** (k - 1)) <= 1e-9


def test_binomial_identity_exact():
    for k in range(2, 17):
        assert binomial_identity_check(k)
    with pytest.raises(ValueError):
        binomial_identity_check(1)


def test_element_to_pauli_matches_pi_tilde():
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    g = element_to_pauli(f)
    assert g.is_hermitian()
    assert np.max(np.abs(sum_dense(g) - pi_tilde_dense(f, 2))) <= 1e-12


def reference_element_to_pauli(f):
    """The expansion as a chain of whole sums: each support term's sum is
    scaled, merged into the running sum, and the result re-sorted."""

    def add_sums(a, b):
        out = dict(a.terms)
        for ps, c in b.terms:
            out[ps] = out.get(ps, 0j) + c
        return pauli_sum(a.n, out)

    acc = pauli_sum(f.n, {})
    for p, c in f.terms:
        acc = add_sums(acc, pauli_sum(f.n, {ps: c * e for ps, e in permutation_to_pauli(p).terms}))
    return acc


def hex_terms(g):
    return [(ps, c.real.hex(), c.imag.hex()) for ps, c in g.terms]


# recorded from the expansion with (site, letter) strings and a letter
# product table: one_norm and the identity coefficient's parts in hex,
# max_weight, term_count, and the sha256 of the repr of the sorted
# (x, z, real hex, imag hex) terms, strings mapped from letters to masks
PINNED = {
    (4, 3, 3, 11): ("0x1.be3991e852adap+1", "-0x1.c4ef246d43498p-3", "0x0.0p+0", 3, 31,
        "a09615d060f4b353ff55475d27bcc1a5e2af464b2c7f3f7b1d3d442cbd29a611"),
    (5, 2, 4, 1): ("0x1.7325432950e1bp+0", "0x1.c543a41420940p-3", "0x0.0p+0", 2, 13,
        "75005718b7dddae9df2d934b8b09e0b89bb72831c74c261ba21d6e7156485ec4"),
    (6, 3, 5, 2): ("0x1.f6996e896996ap+0", "-0x1.255f28c72d4b0p-4", "0x0.0p+0", 3, 25,
        "581ff0c064e095aa3820ee20b925a9c65c2182b62c6f808a346ff8081e001ebe"),
    (8, 3, 6, 3): ("0x1.99809ab7ce79bp+1", "0x1.2b1c765f5761ep-4", "0x0.0p+0", 3, 73,
        "4b1470242be2c3d22be9c569dcf0f6d825f76b0ac61e854409987a8859df8a9b"),
    (10, 3, 5, 4): ("0x1.bc0b678080d97p+1", "-0x1.db8fe7a88aaafp-4", "0x0.0p+0", 3, 58,
        "b4532be7fc18da5fb64949920e719d001d0d218d77edef40700d54aaf9e1686c"),
    (7, 4, 4, 5): ("0x1.2c1f3a37d04b3p+3", "-0x1.ac45b33c83bc2p-4", "0x0.0p+0", 4, 223,
        "f991fb84fb3a54f9b45c8b9f36b69fbb6146da36482ad62f009b8d455b60f07d"),
}


@pytest.mark.parametrize("n,k,terms,seed", [
    (4, 3, 3, 11), (5, 2, 4, 1), (6, 3, 5, 2), (8, 3, 6, 3), (10, 3, 5, 4), (7, 4, 4, 5),
])
def test_element_to_pauli_matches_the_chain_of_sums_bit_for_bit(n, k, terms, seed):
    f = random_hermitian_k_local(n, k, terms, seed=seed)
    g = element_to_pauli(f)
    assert hex_terms(g) == hex_terms(reference_element_to_pauli(f))
    ident = g.coefficient(pauli_identity(n))
    masks = sorted((ps.x, ps.z, c.real.hex(), c.imag.hex()) for ps, c in g.terms)
    got = (g.one_norm.hex(), ident.real.hex(), ident.imag.hex(), g.max_weight, g.term_count,
           hashlib.sha256(repr(masks).encode()).hexdigest())
    assert got == PINNED[(n, k, terms, seed)]


def test_element_to_pauli_drops_a_cancelled_identity_bit_for_bit():
    # (1 2) - (3 4): the identity strings cancel exactly
    f = algebra_element(4, {transposition(4, 1, 2): 1.0, transposition(4, 3, 4): -1.0})
    g = element_to_pauli(f)
    assert g.coefficient(pauli_identity(4)) == 0j
    assert pauli_identity(4) not in dict(g.terms)
    assert hex_terms(g) == hex_terms(reference_element_to_pauli(f))


def test_string_index_phase_matches_dense():
    rng = np.random.default_rng(2)
    for _, ps in labelled_strings(3):
        gather, phase = string_index_phase(ps)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(phase * psi[gather], string_dense(ps) @ psi)


def test_pauli_route_agrees_with_oracle_and_swap_route():
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    basis = young_basis(4, 2)
    block = {(v.tableau_index, v.weight_index): v for v in basis if v.shape.parts == (3, 1)}
    u, v = block[(0, 0)], block[(1, 0)]
    for t, eps in [(0.5, 1e-2), (1.0, 1e-3), (1.0, 1e-6)]:
        expect = exact_matrix_element(u, v, f, t)
        got, report = matrix_element_pauli(u, v, f, t, eps)
        assert abs(got - expect) <= eps
        swap_val, _ = matrix_element(u, v, f, t, eps)
        assert abs(got - swap_val) <= 2 * eps
        assert report.unit == "pauli"
        assert report.actual == 3 * report.M * report.K


def test_both_routes_match_the_irrep_oracle_at_n12():
    # a chain over all twelve sites and an imaginary 3-cycle; the pair
    # shares shape and weight, and its element is far above the tolerance
    n = 12
    terms = {transposition(n, i, i + 1): 0.1 + 0.02 * i for i in range(1, n)}
    cyc = parse_permutation("(3 7 11)", n=n)
    terms[cyc], terms[cyc.inverse()] = 0.15j, -0.15j
    f = algebra_element(n, terms)
    u_label, v_label = (Partition((10, 2)), 0, 1), (Partition((10, 2)), 3, 1)
    expect = irrep_matrix_element(u_label, v_label, f, 1.0)
    assert abs(expect) >= 1e-3
    u, v = young_vector(n, 2, *u_label), young_vector(n, 2, *v_label)
    for eps in (1e-3, 1e-6):
        for route in (matrix_element, matrix_element_pauli):
            got, _ = route(u, v, f, 1.0, eps)
            assert abs(got - expect) <= eps, (route.__name__, eps)


@pytest.mark.parametrize("n", [13, 14])
def test_both_routes_match_the_irrep_oracle_past_n12(n):
    # the chain sum_i (0.3 + 0.01 i)(i i+1), and the first two tableaux of
    # (n-2, 2) at its second weight index, built in one call
    f = algebra_element(n, {transposition(n, i, i + 1): 0.3 + 0.01 * i for i in range(1, n)})
    labels = [(Partition((n - 2, 2)), 0, 1), (Partition((n - 2, 2)), 1, 1)]
    expect = irrep_matrix_element(*labels, f, 1.0)
    assert abs(expect) >= 1e-3
    u, v = young_vectors(n, 2, labels)
    for route in (matrix_element, matrix_element_pauli):
        got, _ = route(u, v, f, 1.0, 1e-4)
        assert abs(got - expect) <= 1e-4, route.__name__


def test_pauli_route_time_zero_and_rejections():
    f = random_hermitian_k_local(3, 2, 2, seed=1)
    a = basis_state(2, 3, [0, 1, 0])
    value, report = matrix_element_pauli(a, a, f, 0.0, 1e-3)
    assert value == 1.0 and report.unit == "pauli"
    with pytest.raises(ValueError):
        matrix_element_pauli(basis_state(3, 3, 0), basis_state(3, 3, 0), f, 1.0, 1e-3)
    skew = algebra_element(3, {parse_permutation("(1 2 3)", n=3): 1.0})
    with pytest.raises(ValueError):
        matrix_element_pauli(a, a, skew, 1.0, 1e-3)


def test_closed_form_pauli_gates_shape():
    assert closed_form_pauli_gates(1.0, 0.0, 3, 5, 1e-3) == 0.0
    g5 = closed_form_pauli_gates(1.0, 1.0, 3, 5, 1e-3)
    g6 = closed_form_pauli_gates(1.0, 1.0, 3, 6, 1e-3)
    assert 0.0 < g5 < g6
    # the qubit-route prefactor carries the 2^(k-1) expansion cost
    swap_like = g5 / (2 ** 2)
    assert math.isfinite(swap_like)
