"""The input boundary is total: the loaders and the element parser either
succeed or raise a WckError, whatever JSON or text they are given, and a
parsed element has finite coefficients. Scalars of the wrong type and
weights or elements over another graph raise a DomainError.

Documents are loaded against the 3-cycle, whose level dimensions stay at
3, and level keys are at most three characters long, so no draw can ask
for a deep path table.
"""

import cmath
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from util import corpus_graphs, cycle_graph, cycle_weight_spec
from wck.cycle_demo import build_cycle, char_phi
from wck.elements import (
    P,
    U,
    Z,
    add,
    adjoint,
    element_str,
    make,
    mul,
    offset,
    parse_element,
    scale,
    sub,
    unit,
)
from wck.errors import DomainError, GraphError, WckError
from wck.graphs import load_graph
from wck.ideals import IdealFamily, family_of_subset, ideal_subspace
from wck.tower import TowerConfig, build_tower
from wck.weights import WeightSpec, check_condition_Ap, load_weights, reperiodize
from wck.windows import WindowConfig, calkin_norm

C3 = cycle_graph(3)
O2 = corpus_graphs()["O2"]

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
NAMES = st.sampled_from(["v1", "v2", "v3", "e1", "e2", "e3", "e1.e2"]) | st.text(
    max_size=3
)
SMALL = st.integers(-1, 4) | JSON

GRAPH_DOCS = st.fixed_dictionaries(
    {
        "vertices": st.lists(NAMES, max_size=4) | JSON,
        "edges": st.lists(
            st.fixed_dictionaries({"name": NAMES, "src": NAMES, "dst": NAMES})
            | JSON,
            max_size=4,
        )
        | JSON,
    }
)
LEVEL = (
    st.dictionaries(NAMES, st.floats() | st.integers(-1, 3) | JSON, max_size=3)
    | st.dictionaries(
        st.sampled_from(["v1:v2", "v2:v3", "v3:v1"]) | st.text(max_size=3),
        st.lists(st.lists(st.floats() | st.integers(-1, 3), max_size=2), max_size=2)
        | JSON,
        max_size=2,
    )
    | JSON
)
WEIGHT_DOCS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["diagonal", "block"]) | JSON,
        "p": SMALL,
        "N": SMALL,
        "levels": st.dictionaries(
            st.integers(-1, 5).map(str) | st.text(max_size=3), LEVEL, max_size=3
        )
        | JSON,
    },
    optional={"epsilon": st.floats() | JSON},
)

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _total(call):
    try:
        call()
    except WckError:
        pass


@FUZZ
@given(doc=JSON | GRAPH_DOCS)
def test_load_graph_is_total(doc):
    _total(lambda: load_graph(json.dumps(doc)))


@FUZZ
@given(doc=JSON | WEIGHT_DOCS)
def test_load_weights_is_total(doc):
    _total(lambda: load_weights(json.dumps(doc), C3))


# scalars past the float range, glued to a word, a unit term or a sum
OVERFLOW = st.tuples(
    st.sampled_from(["", "-", "2*"]),
    st.sampled_from(["1e400", "1e309j", "1e200*1e200", "1e308*z + 1e308"]),
    st.sampled_from(["", "*z", "*u(e1)", " + z"]),
).map("".join)


@FUZZ
@given(
    text=st.text(alphabet="uzp*()^.+-1234567890ej ve", max_size=24)
    | st.text()
    | OVERFLOW
)
def test_parse_element_is_total(text):
    try:
        x = parse_element(C3, text)
    except WckError:
        return
    assert all(map(cmath.isfinite, x.terms.values())), text


def _c3w():
    return cycle_weight_spec(C3, (2.0, 1.0, 3.0))


def _c3w_tower(**config):
    return build_tower(C3, _c3w(), TowerConfig(**config))


def _subset(subset):
    tw = build_tower(C3, WeightSpec.unweighted(C3), TowerConfig(n_max=1))
    return family_of_subset(tw, subset)


def _ideal_subspace(v):
    tw = build_tower(C3, WeightSpec.unweighted(C3), TowerConfig(n_max=1))
    return ideal_subspace(tw, v, ())


def _transport(a, b):
    g = corpus_graphs()["G2"]
    tw = build_tower(g, WeightSpec.unweighted(g), TowerConfig(n_max=1))
    return tw.transport(g.parse_path(a), g.parse_path(b), "left the corner")


def _char_phi(n, i):
    g, _, model = build_cycle(3, (2.0, 1.0, 3.0))
    return char_phi(model, n, i, parse_element(g, "z"))


MALFORMED = {
    "tower-n_max-float": lambda: _c3w_tower(n_max=1.5),
    "tower-n_max-negative": lambda: _c3w_tower(n_max=-1),
    "tower-M-str": lambda: _c3w_tower(M="a"),
    "tower-W-zero": lambda: _c3w_tower(W=0),
    "tower-W-negative": lambda: _c3w_tower(W=-2),
    "tower-weights-of-C3-on-O2": lambda: build_tower(O2, _c3w()),
    "subset-float": lambda: _subset([2.7]),
    "subset-bool": lambda: _subset([True]),
    "subset-none": lambda: _subset([None]),
    "subset-int": lambda: _subset(5),
    "char_phi-i-float": lambda: _char_phi(0, 2.7),
    "char_phi-i-str": lambda: _char_phi(0, "a"),
    "char_phi-n-float": lambda: _char_phi(1.5, 0),
    "Ap-p_test-bool": lambda: check_condition_Ap(_c3w(), True),
    "Ap-p_test-float": lambda: check_condition_Ap(_c3w(), 2.5),
    "Ap-p_test-str": lambda: check_condition_Ap(_c3w(), "2"),
    "Ap-k_max-float": lambda: check_condition_Ap(_c3w(), 2, k_max=2.5),
    "reperiodize-float": lambda: reperiodize(_c3w(), 1.5),
    "make-edge-float": lambda: make(C3, ((U, 1.0),)),
    "make-edge-bool": lambda: make(C3, ((U, True),)),
    "make-vertex-float": lambda: make(C3, ((P, 0.0),)),
    "make-z-bool": lambda: make(C3, ((Z, True),)),
    "make-coeff-str": lambda: make(C3, ((U, 0),), "abc"),
    "make-coeff-none": lambda: make(C3, ((U, 0),), None),
    "make-coeff-list": lambda: make(C3, ((U, 0),), [1]),
    "make-coeff-nan": lambda: make(C3, ((U, 0),), float("nan")),
    "make-coeff-inf-imag": lambda: make(C3, ((U, 0),), complex(1, float("inf"))),
    "scale-coeff-str": lambda: scale("abc", unit(C3)),
    "scale-coeff-none": lambda: scale(None, unit(C3)),
    "scale-coeff-list": lambda: scale([1], unit(C3)),
    "scale-coeff-nan": lambda: scale(float("nan"), unit(C3)),
    "scale-coeff-inf-imag": lambda: scale(complex(1, float("inf")), unit(C3)),
    "scale-element-str": lambda: scale(2.0, "abc"),
    "add-element-str": lambda: add(unit(C3), "abc"),
    "add-element-none": lambda: add(None, unit(C3)),
    "sub-element-int": lambda: sub(unit(C3), 3),
    "mul-element-int": lambda: mul(unit(C3), 3),
    "mul-element-str": lambda: mul("x", unit(C3)),
    "adjoint-element-str": lambda: adjoint("x"),
    "offset-element-list": lambda: offset([1]),
    "element_str-element-str": lambda: element_str("x"),
    "ideal_subspace-vertex-99": lambda: _ideal_subspace(99),
    "ideal_subspace-vertex-negative": lambda: _ideal_subspace(-1),
    "ideal_subspace-vertex-str": lambda: _ideal_subspace("a"),
    "family-choices-ints": lambda: IdealFamily([1, 2, 3], [1, 1, 1]),
    "family-count-str": lambda: IdealFamily([(), (), ()], [1, "a", 1]),
    "transport-not-parallel": lambda: _transport("l1", "l2"),
    "transport-unequal-lengths": lambda: _transport("l1", "l1.l1"),
    "transport-length-zero": lambda: _transport("v1", "v1"),
    "transport-window-too-short": lambda: _transport("l1.l1.l1.l1", "l1.l1.l1.l1"),
    "calkin_norm-O2-element": lambda: calkin_norm(
        parse_element(O2, "z"), WindowConfig(weights=_c3w())
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scalars_and_foreign_graphs_raise_domain_errors(name):
    with pytest.raises(GraphError if name.startswith("transport-") else DomainError):
        MALFORMED[name]()
