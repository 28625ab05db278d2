"""Normal form and grammar for formal quotient-algebra elements.

The ground-truth oracle is matrix evaluation: a raw letter word acts on
the graded path spaces through its product of letter matrices, and the
normalizer must preserve that action while it rewrites. Normal forms
are canonical for the rewrites the normalizer knows (vertex typing,
u*(e) u(f), z powers, z commuting with p(v)). It does not use the
Cuntz-Krieger sum relation, so distinct normal forms can still act
identically; those pairs are compared through evaluation instead.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from util import corpus_graphs, cycle_graph, cycle_weight_spec, random_diag_spec
from wck import elements as el
from wck.elements import P, U, US, Z
from wck.errors import ElementError
from wck.weights import WeightSpec
from wck.windows import word_matrix


@pytest.fixture(scope="module")
def c3():
    return cycle_graph(3)


@pytest.fixture(scope="module")
def o2():
    return corpus_graphs()["O2"]


def letters_of(g):
    pool = [(U, e) for e in range(g.n_edges)]
    pool += [(US, e) for e in range(g.n_edges)]
    pool += [(P, v) for v in range(g.n_vertices)]
    pool += [(Z, 1), (Z, -1), (Z, 2)]
    return pool


def raw_words(g, max_len=4):
    return st.lists(
        st.sampled_from(letters_of(g)), min_size=0, max_size=max_len
    ).map(tuple)


def at_every_vertex(g, word, coeff=1.0 + 0j):
    """Terms of a word with no vertex: one copy p(v).word per vertex."""
    return {((P, v),) + word: coeff for v in range(g.n_vertices)}


def elem_matrix(w, x, k):
    """Sum of word-matrix actions of an element's terms at level k."""
    total = 0
    for word, c in x.terms.items():
        total = total + c * word_matrix(w, word, k)
    return total


# -- normalizer vs matrix oracle ---------------------------------------------


@settings(deadline=None, max_examples=150)
@given(st.data(), st.sampled_from(["C3", "G2", "theta", "O2"]), st.integers(0, 2**31 - 1))
def test_normal_form_preserves_action(data, name, seed):
    g = corpus_graphs()[name]
    w = random_diag_spec(g, 2, 1, np.random.default_rng(seed))
    word = data.draw(raw_words(g))
    x = el.make(g, word)
    for k in range(3, 6):
        raw = word_matrix(w, word, k)
        if x.is_zero:
            assert np.allclose(raw, 0, atol=1e-12)
        else:
            assert np.allclose(raw, elem_matrix(w, x, k), atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(st.data(), st.integers(0, 2**31 - 1))
def test_mul_matches_concatenation(data, seed):
    g = corpus_graphs()["G2"]
    w = random_diag_spec(g, 1, 1, np.random.default_rng(seed))
    wa = data.draw(raw_words(g, 3))
    wb = data.draw(raw_words(g, 3))
    prod = el.mul(el.make(g, wa), el.make(g, wb))
    db = el.word_offset(wb)
    for k in range(3, 5):
        raw = word_matrix(w, wa, k + db) @ word_matrix(w, wb, k)
        if prod.is_zero:
            assert np.allclose(raw, 0, atol=1e-12)
        else:
            assert np.allclose(raw, elem_matrix(w, prod, k), atol=1e-12)


# -- specific rewrite identities ----------------------------------------------


def test_isometry_relation(c3):
    x = el.mul(el.make(c3, ((US, 0),)), el.make(c3, ((U, 0),)))
    assert x == el.make(c3, ((P, 0),))  # s(e1) = v1


def test_distinct_edges_annihilate(o2):
    x = el.mul(el.make(o2, ((US, 0),)), el.make(o2, ((U, 1),)))
    assert x.is_zero


def test_projection_absorption(c3):
    u_e1 = el.make(c3, ((U, 0),))
    assert el.mul(el.make(c3, ((P, 1),)), u_e1) == u_e1  # r(e1) = v2
    assert el.mul(u_e1, el.make(c3, ((P, 0),))) == u_e1  # s(e1) = v1
    assert el.mul(el.make(c3, ((P, 2),)), u_e1).is_zero
    assert el.mul(u_e1, el.make(c3, ((P, 1),))).is_zero


def test_vertex_projections_orthogonal(c3):
    pv = el.make(c3, ((P, 0),))
    assert el.mul(pv, pv) == pv
    assert el.mul(pv, el.make(c3, ((P, 1),))).is_zero


def test_z_powers_merge(c3):
    x = el.make(c3, ((Z, 1), (Z, 2), (Z, -3)))
    assert x == el.unit(c3)
    y = el.mul(el.make(c3, ((Z, 2),)), el.make(c3, ((Z, 1),)))
    assert y.terms == at_every_vertex(c3, ((Z, 3),))


def test_partial_isometry_word(c3):
    x = el.make(c3, ((U, 0), (US, 0), (U, 0)))
    assert x == el.make(c3, ((U, 0),))


def test_z_is_not_rewritten(c3):
    # z stays left of u(e1); the p(v2) before it only types the word
    x = el.make(c3, ((P, 1), (Z, 1), (U, 0)))
    assert list(x.terms) == [((Z, 1), (U, 0))]


def test_path_mismatch_annihilates(c3):
    # u(e1)u(e1) needs s(e1) = r(e1), false on a 3-cycle
    assert el.make(c3, ((U, 0), (U, 0))).is_zero
    assert el.make(c3, ((U, 1), (U, 0))) == el.make(c3, ((U, 1), (U, 0)))
    assert el.make(c3, ((US, 0), (US, 1))).is_zero is False
    assert el.make(c3, ((US, 1), (US, 0))).is_zero


def test_adjoint_involution_and_products(c3):
    assert not el.parse_element(c3, "u(e1).z.u*(e1)").is_zero
    a = el.parse_element(c3, "u(e1).z.u*(e1) + 2*p(v1)")
    assert el.adjoint(el.adjoint(a)) == a
    b = el.parse_element(c3, "z^2 - u(e3)")
    left = el.adjoint(el.mul(a, b))
    right = el.mul(el.adjoint(b), el.adjoint(a))
    assert left == right


def test_mul_normalizes_only_typed_pairs(c3, monkeypatch):
    """z - 1 has one term per vertex, and p(v) meets only p(v)."""
    a = el.parse_element(c3, "z - 1")
    b = el.parse_element(c3, "z - 2")
    ref = el.parse_element(c3, "z^2 - 3*z + 2")
    calls = []
    normalize = el._normalize_word
    monkeypatch.setattr(
        el, "_normalize_word", lambda g, w: calls.append(w) or normalize(g, w)
    )
    assert el.mul(a, b) == ref
    assert len(calls) == 12
    # a word with no vertex, never a normal form, meets every term
    raw = el.CalkinElement(c3, {((Z, 1),): 1 + 0j})
    z = el.parse_element(c3, "z")
    assert el.mul(raw, b) == el.mul(z, b) and el.mul(b, raw) == el.mul(b, z)


C3 = corpus_graphs()["C3"]


@settings(deadline=None, max_examples=80)
@given(raw_words(C3, 3), raw_words(C3, 3), raw_words(C3, 3))
# the unit z . z^-1 inside a product is expanded into the p(v); the typing
# rule moves each p(v) past z, so both brackets give the words p(v).z
@example(((Z, 1),), ((Z, 1),), ((Z, -1),))
# z.p(v2).z, bracketed through z.p(v2) and through p(v2).z
@example(((Z, 1),), ((P, 1),), ((Z, 1),))
# u*(e1).z.p(v2).z.u(e1): the p(v2) between the z powers drops out
@example(((US, 0), (Z, 1)), ((P, 1),), ((Z, 1), (U, 0)))
def test_mul_is_associative(wa, wb, wc):
    a, b, c = (el.make(C3, w) for w in (wa, wb, wc))
    assert el.mul(el.mul(a, b), c) == el.mul(a, el.mul(b, c))


# -- canonical forms ------------------------------------------------------------


def test_vertex_projections_sum_to_unit(c3):
    assert el.parse_element(c3, "p(v1) + p(v2) + p(v3)") == el.parse_element(c3, "1")


def test_z_commutes_with_vertex_projections(c3):
    assert el.parse_element(c3, "z.p(v1)") == el.parse_element(c3, "p(v1).z")


def test_typing_sees_through_z(c3):
    assert el.parse_element(c3, "p(v1).z.u(e1)").is_zero  # r(e1) = v2


def test_projection_between_z_powers_drops(c3):
    x = el.parse_element(c3, "u(e1).z.u*(e1).u(e1).z.u*(e1)")
    assert x == el.parse_element(c3, "u(e1).z^2.u*(e1)")


def test_dead_word_has_no_offset(c3):
    assert el.offset(el.parse_element(c3, "p(v1) + p(v1).z.u(e1)")) == 0


def test_offsets(c3):
    x = el.parse_element(c3, "u(e1).z.u*(e1)")
    assert not x.is_zero
    assert el.offset(x) == 0
    assert el.offset(el.parse_element(c3, "u(e1).u(e3)")) == 2
    assert el.offset(el.zero(c3)) == 0
    with pytest.raises(ElementError, match="mixes grading"):
        el.offset(el.parse_element(c3, "u(e1) + z"))


# -- grammar ------------------------------------------------------------------


def test_parse_basic_word(c3):
    x = el.parse_element(c3, "u(e1).z^2.u*(e1)")
    assert x.terms == {((U, 0), (Z, 2), (US, 0)): 1.0 + 0j}
    # s(e1) = v1 but s(e3) = v3: the typing rule sees through z^2
    assert el.parse_element(c3, "u(e1).z^2.u*(e3)").is_zero


def test_parse_adjoint_letter(c3):
    x = el.parse_element(c3, "u*(e1)")
    assert x.terms == {((US, 0),): 1.0 + 0j}
    y = el.parse_element(c3, "2*u*(e1)")
    assert y.terms == {((US, 0),): 2.0 + 0j}


def test_parse_scalar_prefix(c3):
    x = el.parse_element(c3, "2.5*u(e1)")
    assert x.terms == {((U, 0),): 2.5 + 0j}
    y = el.parse_element(c3, "1e-3*z")
    assert y.terms == at_every_vertex(c3, ((Z, 1),), 0.001 + 0j)


def test_parse_negative_z_power(c3):
    assert el.parse_element(c3, "z^-2").terms == at_every_vertex(c3, ((Z, -2),))


def test_parse_sums_and_signs(c3):
    x = el.parse_element(c3, "u(e1) + 2*p(v2) - z^2")
    assert x.terms[((U, 0),)] == 1.0
    assert x.terms[((P, 1),)] == 2.0
    assert all(x.terms[((P, v), (Z, 2))] == -1.0 for v in range(3))
    assert el.parse_element(c3, "z - z").is_zero
    minus_z = el.parse_element(c3, "-z")
    assert minus_z.terms == at_every_vertex(c3, ((Z, 1),), -1.0 + 0j)


def test_parse_unit_terms(c3):
    one = el.parse_element(c3, "1")
    assert one == el.unit(c3)
    three = el.parse_element(c3, "3")
    assert three == el.scale(3.0, el.unit(c3))
    mixed = el.parse_element(c3, "z.1.z")
    assert mixed.terms == at_every_vertex(c3, ((Z, 2),))


def test_parse_integer_factor_scales(c3):
    x = el.parse_element(c3, "2.z")
    assert x.terms == at_every_vertex(c3, ((Z, 1),), 2.0 + 0j)


def test_parse_errors(c3):
    too_long = "z^" + "9" * 5000  # past int()'s digit limit
    overflow = ["1e400*z", "-1e400", "1e200*1e200*z", "1e308*z + 1e308*z"]
    malformed = ["", "u(nope)", "p(nope)", "q(v1)", "u(e1", "z^", "u(e1)..z", "+"]
    for bad in malformed + [too_long] + overflow:
        with pytest.raises(ElementError):
            el.parse_element(c3, bad)


@pytest.mark.parametrize("bad", [5, None, ["u(e1)"]])
def test_parse_non_string_raises_element_error(c3, bad):
    with pytest.raises(ElementError):
        el.parse_element(c3, bad)


def test_render_roundtrip(c3):
    for text in [
        "u(e1).z^2.u*(e1)",
        "u(e1) + 2*p(v2) - z^2",
        "z^-1",
        "3",
        "p(v2).z.u(e1)",
    ]:
        x = el.parse_element(c3, text)
        assert not x.is_zero
        assert el.parse_element(c3, el.element_str(x)) == x


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_render_roundtrip_random(data):
    g = corpus_graphs()["theta"]
    x = el.zero(g)
    for _ in range(data.draw(st.integers(0, 3))):
        word = data.draw(raw_words(g, 3))
        coeff = data.draw(st.sampled_from([1.0, -2.0, 0.5, 1j]))
        x = el.add(x, el.make(g, word, coeff))
    assert el.parse_element(g, el.element_str(x)) == x
