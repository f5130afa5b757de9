"""Property tests: group laws, convolution against the dict loop, the
convolution theorem, the irrep oracle and the element JSON form on
generated inputs."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from test_group_algebra import hex_terms, reference_convolve

from snsim.cli import _json_text
from snsim.group_algebra import (
    algebra_element,
    convolution_theorem_check,
    convolve,
    element_from_json_dict,
    element_to_json_dict,
    random_hermitian_k_local,
)
from snsim.permutation import Permutation, identity
from snsim.quditsim import exact_matrix_element, irrep_matrix_element, young_vectors
from snsim.yor import dimension, tableaux
from snsim.young import StandardTableau, enumerate_partitions, hook_length_dimension, weyl_dimension

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def permutations_of(n):
    return st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))


@st.composite
def permutation_triples(draw):
    perms = permutations_of(draw(st.integers(1, 7)))
    return draw(perms), draw(perms), draw(perms)


@st.composite
def sparse_elements(draw, n):
    coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(permutations_of(n), coefficients), max_size=6))
    out = {}
    for p, c in terms:
        out[p] = out.get(p, 0j) + c
    return algebra_element(n, out)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(sparse_elements(n)), draw(sparse_elements(n))


@PROPERTY
@given(permutation_triples())
def test_compose_is_associative_with_inverses(triple):
    p, q, r = triple
    e = identity(p.n)
    assert p * (q * r) == (p * q) * r
    assert p * p.inverse() == e == p.inverse() * p
    assert p * e == p == e * p
    assert (p * q).inverse() == q.inverse() * p.inverse()


@PROPERTY
@given(element_pairs())
def test_convolution_theorem_on_sparse_elements(pair):
    f, g = pair
    assert convolution_theorem_check(f, g) <= 1e-10


@st.composite
def cancelling_pairs(draw):
    """Two elements of one S_n whose coefficients are drawn from a few
    small values, signed zero parts included, so that products collide,
    cancel to exactly 0 and carry -0.0, besides arbitrary ones."""
    n = draw(st.integers(1, 6))
    small = st.sampled_from([1.0, -1.0, 0.5, -0.0, 0.0, 2.0, -0.25])
    coefficients = st.one_of(
        st.builds(complex, small, small),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    terms = st.lists(st.tuples(permutations_of(n), coefficients), max_size=8)
    return tuple(algebra_element(n, dict(draw(terms))) for _ in range(2))


@PROPERTY
@given(cancelling_pairs())
def test_convolve_equals_the_dict_loop(pair):
    f, g = pair
    assert hex_terms(convolve(f, g)) == hex_terms(reference_convolve(f, g))


@st.composite
def young_pairs(draw):
    """A Hermitian element, a time and two labels of one shape at (n, d)."""
    n = draw(st.integers(2, 6))
    d = draw(st.sampled_from([2, 3]))
    shape = draw(st.sampled_from(enumerate_partitions(n, max_rows=min(n, d))))
    tableau = st.integers(0, dimension(shape) - 1)
    weight = st.integers(0, weyl_dimension(shape, d) - 1)
    k = draw(st.integers(2, min(n, 3)))
    f = random_hermitian_k_local(n, k, draw(st.integers(1, 1 if n == 2 else 3)),
                                 seed=draw(st.integers(0, 2**16)))
    u = (shape, draw(tableau), draw(weight))
    # the same weight most of the time: across weights the element is 0
    v = (shape, draw(tableau), draw(st.one_of(st.just(u[2]), weight)))
    return n, d, f, u, v, draw(st.floats(-3.0, 3.0))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(young_pairs())
def test_irrep_oracle_matches_dense_oracle(request):
    n, d, f, u, v, t = request
    uv, vv = young_vectors(n, d, (u, v))
    assert abs(irrep_matrix_element(u, v, f, t) - exact_matrix_element(uv, vv, f, t)) <= 1e-12


def restricted(tableau, m):
    """The tableau of the entries 1..m of `tableau`."""
    rows = (tuple(e for e in row if e <= m) for row in tableau.rows)
    return StandardTableau(tuple(row for row in rows if row))


@st.composite
def embedded_requests(draw, n):
    """m, a Hermitian element on S_m, the same element embedded in S_n
    (fixing m+1..n), a shape of n, two of its tableau indices and a time."""
    m = draw(st.integers(2, n - 1))
    coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    small: dict = {}
    for p, c in draw(st.lists(st.tuples(permutations_of(m), coefficients), min_size=1, max_size=4)):
        small[p] = small.get(p, 0j) + c
        small[p.inverse()] = small.get(p.inverse(), 0j) + c.conjugate()
    tail = tuple(range(m + 1, n + 1))
    big = {Permutation(p.images + tail): c for p, c in small.items()}
    lam = draw(st.sampled_from([lam for lam in enumerate_partitions(n)
                                if hook_length_dimension(lam) <= 200]))
    ts = tableaux(lam)
    ti = draw(st.integers(0, len(ts) - 1))
    # often a partner placing m+1..n where ts[ti] does, where the element
    # need not vanish
    same = [j for j, t in enumerate(ts) if all(t.position(k) == ts[ti].position(k) for k in tail)]
    tj = draw(st.one_of(st.sampled_from(same), st.integers(0, len(ts) - 1)))
    return (m, algebra_element(m, small), algebra_element(n, big), lam, ti, tj,
            draw(st.floats(-3.0, 3.0)))


@pytest.mark.parametrize("n", [4, 7, 10])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_irrep_element_restricts_to_the_embedded_group(n, data):
    # Young's orthogonal form is adapted to S_1 < .. < S_n: on an element
    # of S_m the S_n element splits over the cells of m+1..n
    m, small, big, lam, ti, tj, t = data.draw(embedded_requests(n))
    t_u, t_v = tableaux(lam)[ti], tableaux(lam)[tj]
    got = irrep_matrix_element((lam, ti, 0), (lam, tj, 0), big, t)
    if any(t_u.position(k) != t_v.position(k) for k in range(m + 1, n + 1)):
        assert abs(got) <= 1e-12
        return
    mu = restricted(t_u, m).shape
    u, v = ((mu, tableaux(mu).index(restricted(tab, m)), 0) for tab in (t_u, t_v))
    expect = irrep_matrix_element(u, v, small, t)
    assert abs(got - expect) <= 1e-12


@PROPERTY
@given(st.integers(1, 6).flatmap(sparse_elements))
def test_element_json_round_trip(f):
    data = element_to_json_dict(f)
    assert element_from_json_dict(json.loads(json.dumps(data))).terms == f.terms
    # the CLI writes floats at 17 significant digits, which read back
    # exactly, but for the sign of a zero
    back = element_from_json_dict(json.loads(_json_text(data)))
    assert [(p, c.real.hex(), c.imag.hex()) for p, c in back.terms] == \
        [(p, (c.real + 0.0).hex(), (c.imag + 0.0).hex()) for p, c in f.terms]
