"""The input boundary is total: the loaders and the element parser either
succeed or raise a WckError, whatever JSON or text they are given, and a
parsed element has finite coefficients.

Documents are loaded against the 3-cycle, whose level dimensions stay at
3, and level keys are at most three characters long, so no draw can ask
for a deep path table.
"""

import cmath
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from util import cycle_graph
from wck.elements import parse_element
from wck.errors import WckError
from wck.graphs import load_graph
from wck.weights import load_weights

C3 = cycle_graph(3)

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
