"""Window evaluation, block homomorphism, and the stable-norm protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    calkin_equal,
    compose,
    corpus_graphs,
    cycle_graph,
    cycle_weight_spec,
    load_workloads,
    looped_window_matrix,
    path_isometry,
    random_diag_spec,
)
from wck import elements as el
from wck import graphs
from wck.elements import P, U, US, Z
from wck.errors import ElementError, WindowUnstableError
from wck.weights import WeightSpec
from wck import windows as win
from wck.windows import WindowConfig, calkin_norm, eval_block

T = (2.0, 1.0, 3.0)


@pytest.fixture(scope="module")
def c3():
    return cycle_graph(3)


@pytest.fixture(scope="module")
def c3w(c3):
    return cycle_weight_spec(c3, T)


@pytest.fixture(scope="module")
def cfg(c3w):
    return WindowConfig(weights=c3w)


def test_unit_evaluates_to_identity(c3, c3w):
    one = el.unit(c3)
    for k in range(5):
        assert np.allclose(eval_block(one, k, c3w), np.eye(c3.level_dim(k)))


def test_z_block_diagonal_values(c3, c3w):
    z = el.parse_element(c3, "z")
    block = eval_block(z, 5, c3w)
    for i in range(3):
        col = c3.path_index(c3.xi(i, 5))
        assert block[col, col] == T[i]
    assert np.allclose(block, np.diag(np.diag(block)))


def test_vertex_projection_block(c3, c3w):
    pv2 = el.parse_element(c3, "p(v2)")
    block = eval_block(pv2, 1, c3w)
    # only e1 has range v2
    expected = np.zeros((3, 3))
    expected[c3.path_index(c3.parse_path("e1")), c3.path_index(c3.parse_path("e1"))] = 1
    assert np.allclose(block, expected)


def test_range_projection_identity_on_cycle(c3, c3w):
    # on a cycle u(e)u*(e) acts as p(r(e))
    lhs = el.parse_element(c3, "u(e1).u*(e1)")
    rhs = el.parse_element(c3, "p(v2)")
    for k in range(1, 5):
        assert np.allclose(eval_block(lhs, k, c3w), eval_block(rhs, k, c3w))


def test_eval_block_rejects_mixed_offsets(c3, c3w):
    with pytest.raises(ElementError, match="mixes grading"):
        eval_block(el.parse_element(c3, "u(e1) + z"), 3, c3w)


def test_annihilation_reach(c3):
    assert win.annihilation_depth(el.parse_element(c3, "u*(e1)")) == 1
    assert win.annihilation_depth(el.parse_element(c3, "u(e1).u*(e1)")) == 1
    assert win.annihilation_depth(el.parse_element(c3, "p(v1)")) == 0
    # reaches are measured on the normal form, where u*(e2).u(e2) is gone
    assert win.max_rise(el.parse_element(c3, "u*(e2).u(e2).u(e1)")) == 1
    assert win.max_rise(el.parse_element(c3, "u(e2).u(e1)")) == 2


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(0, 2**31 - 1))
def test_block_homomorphism(data, seed):
    g = corpus_graphs()["C3"]
    w = random_diag_spec(g, 2, 0, np.random.default_rng(seed))
    pool = [(U, e) for e in range(3)] + [(US, e) for e in range(3)]
    pool += [(P, v) for v in range(3)] + [(Z, 1), (Z, -1)]
    wx = data.draw(st.lists(st.sampled_from(pool), max_size=3).map(tuple))
    wy = data.draw(st.lists(st.sampled_from(pool), max_size=3).map(tuple))
    x, y = el.make(g, wx), el.make(g, wy)
    xy = el.mul(x, y)
    if x.is_zero or y.is_zero:
        return
    dy = el.offset(y)
    for k in range(3, 6):
        lhs = eval_block(xy, k, w) if not xy.is_zero else 0 * (
            eval_block(x, k + dy, w) @ eval_block(y, k, w)
        )
        rhs = eval_block(x, k + dy, w) @ eval_block(y, k, w)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_window_rep_character_example(c3, c3w):
    # p(v1)(z - t_1) over levels 12..17: each block holds at most one
    # diagonal entry, at the unique path ending at v1; odd levels cycle
    # through t_i - t_1 with i = (1-k) mod 3, even levels give 1 - t_1
    x = el.mul(
        el.parse_element(c3, "p(v1)"),
        el.sub(el.parse_element(c3, "z"), el.scale(T[0], el.unit(c3))),
    )
    blocks = [eval_block(x, k, c3w) for k in range(12, 18)]
    odd_values = []
    for k, block in zip(range(12, 18), blocks):
        nz = block[np.abs(block) > 0]
        if k % 2 == 0:
            assert nz.size == 1 and nz[0] == 1.0 - T[0]
        else:
            assert nz.size <= 1
            odd_values.append(complex(nz[0]).real if nz.size else 0.0)
    assert sorted(odd_values) == [-1.0, 0.0, 1.0]
    values = np.concatenate([block.ravel() for block in blocks])
    assert {complex(v) for v in np.round(values, 12)} == {0j, 1 + 0j, -1 + 0j}


WINDOW_ELEMENTS = [
    ("C3w", "z"),
    ("C3w", "1"),
    ("C3w", "u(e1)"),
    ("C3w", "z^2 - 3*z + 2"),
    ("C3w", "z.u(e1).u*(e1) - u(e1).u*(e1).z"),
    ("C3w", "u(e1) + u*(e2).z + 2*z.z - p(v1)"),
    ("O2w", "z"),
    ("O2w", "u(e).u*(e) + u(f).u*(f) - 1"),
    ("O2w", "u(e).z.u*(f) + u*(e).z - z"),
    ("O2w", "u(e).u(f) + 0.5j*u*(f)"),
]


@pytest.mark.parametrize("key, text", WINDOW_ELEMENTS)
def test_window_matrix_matches_the_per_word_loop(c3w, key, text):
    """Each homogeneous part filled by eval_block equals the sum word by word."""
    if key == "C3w":
        w = c3w
    else:
        g = corpus_graphs()["O2"]
        w = random_diag_spec(g, 2, 1, np.random.default_rng(7))
    x = el.parse_element(w.graph, text)
    for M in range(2, 6):
        for W in (2, 4, 6):
            assert np.array_equal(
                win._window_matrix(x, w, M, W), looped_window_matrix(x, w, M, W)
            ), (M, W)


def test_calkin_norm_of_z(c3, cfg):
    assert calkin_norm(el.parse_element(c3, "z"), cfg) == pytest.approx(3.0, abs=1e-9)


def test_calkin_norm_of_unit(c3, cfg):
    assert calkin_norm(el.unit(c3), cfg) == pytest.approx(1.0, abs=1e-9)


def test_calkin_norm_polynomial(c3, cfg):
    z = el.parse_element(c3, "z")
    x = el.mul(el.sub(z, el.unit(c3)), el.sub(z, el.scale(T[0], el.unit(c3))))
    assert calkin_norm(x, cfg) == pytest.approx(2.0, abs=1e-9)


def test_calkin_norm_zero_element(c3, cfg):
    assert calkin_norm(el.zero(c3), cfg) == 0.0


def test_calkin_equal_examples(c3, cfg):
    ua_star_ua = el.parse_element(c3, "u*(e1).u(e1)")
    assert calkin_equal(ua_star_ua, el.parse_element(c3, "p(v1)"), cfg)
    # z commutes with u(e)u*(f) at matching levels
    lhs = el.parse_element(c3, "z.u(e1).u*(e1)")
    rhs = el.parse_element(c3, "u(e1).u*(e1).z")
    assert calkin_equal(lhs, rhs, cfg)
    assert not calkin_equal(el.parse_element(c3, "z"), el.unit(c3), cfg)


def test_calkin_norm_isometry_mixed_grading(c3, cfg):
    # a graded word still has norm 1: compression cannot exceed it and
    # interior levels realize it
    assert calkin_norm(el.parse_element(c3, "u(e1)"), cfg) == pytest.approx(
        1.0, abs=1e-9
    )


def test_inclusion_identity(c3, c3w, cfg):
    # u_α z^l u_β* equals the sum of its one-step expansions
    # Σ_{|γ|=p} u_{αγ} z^l u_{βγ}*
    alpha = c3.parse_path("e1")
    beta = c3.parse_path("e1")
    x = el.mul(
        path_isometry(c3, alpha),
        el.mul(el.parse_element(c3, "z"), el.adjoint(path_isometry(c3, beta))),
    )
    total = el.zero(c3)
    for gamma in c3.paths(2):
        if c3.range_of(gamma) != alpha.source:
            continue
        ag = compose(c3, alpha, gamma)
        bg = compose(c3, beta, gamma)
        term = el.mul(
            path_isometry(c3, ag),
            el.mul(el.parse_element(c3, "z"), el.adjoint(path_isometry(c3, bg))),
        )
        total = el.add(total, term)
    assert calkin_equal(x, total, cfg)


def test_unweighted_norms():
    g = corpus_graphs()["O2"]
    w = WeightSpec.unweighted(g)
    cfg = WindowConfig(weights=w)
    assert calkin_norm(el.parse_element(g, "z"), cfg) == pytest.approx(1.0, abs=1e-9)
    assert calkin_norm(el.parse_element(g, "u(e)"), cfg) == pytest.approx(1.0, abs=1e-9)
    x = el.parse_element(g, "u(e).u*(e) + u(f).u*(f)")
    assert calkin_equal(x, el.unit(g), cfg)


def test_norm_evaluates_each_block_once(monkeypatch):
    """The benchmark's norm elements: one eval_block per (part, level).

    Before the blocks were kept within a call, every trial width and
    the translated window evaluated them again: 72 calls for the 40
    distinct (homogeneous part, level) pairs. The norms are unchanged
    to the last bit.
    """
    workloads = load_workloads()
    sweep = workloads.WORKLOADS["corpus-sweep"]
    loaded = sweep.load(sweep.inputs(2))
    calls = []

    def counted(x, k, w):
        calls.append(k)
        return eval_block(x, k, w)

    monkeypatch.setattr(win, "eval_block", counted)
    norms = [
        repr(calkin_norm(build(loaded[key][0]), WindowConfig(weights=loaded[key][1])))
        for key, _, build in workloads.NORM_ELEMENTS
    ]
    assert len(calls) == 40
    assert norms == ["3.0", "1.0", "1.0", "2.0", "0.0", "1.0", "0.0"]


def test_dimension_guard_raises(monkeypatch):
    g = corpus_graphs()["O2"]
    w = WeightSpec.unweighted(g)
    monkeypatch.setattr(graphs, "MAX_LEVEL_DIM", 2)
    cfg = WindowConfig(weights=w)
    with pytest.raises(WindowUnstableError, match="guard 2"):
        calkin_norm(el.parse_element(g, "z"), cfg)


# -- span helpers -------------------------------------------------------------


def test_onb_and_membership():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    rows = np.vstack([rows, rows[0] + rows[1]])
    basis = win.onb(rows)
    assert basis.shape[0] == 3
    assert np.allclose(basis.conj() @ basis.T, np.eye(3), atol=1e-10)
    assert win.in_span(rows[3], basis)
    assert not win.in_span(rng.normal(size=8), basis)


def test_onb_on_nonzero_columns_matches_the_dense_svd():
    """onb works on the nonzero columns only; the span is the dense one."""
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
    rows[4] = rows[0] - 2j * rows[1]
    zero = rng.permutation(40)[:25]
    rows[:, zero] = 0.0
    basis = win.onb(rows)
    s, vh = np.linalg.svd(rows, full_matrices=False)[1:]
    ref = vh[s > win.RANK_TOL * s[0]]
    assert basis.shape == ref.shape == (5, 40)
    assert not np.any(basis[:, zero])
    gap = basis.T @ basis.conj() - ref.T @ ref.conj()
    assert np.linalg.norm(gap, 2) <= 1e-12
    # a stack that is zero everywhere has no basis
    assert win.onb(np.zeros((3, 40))).shape == (0, 40)


def test_stacked_span_residuals():
    """A row and the same row as a one-row stack give the same answer."""
    rng = np.random.default_rng(4)
    basis = win.onb(rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
    inside = rng.normal(size=3) @ basis
    outside = rng.normal(size=8) + 1j * rng.normal(size=8)
    for row in (inside, outside):
        one = win.span_residual(row, basis)
        stack = win.span_residual(row[None, :], basis)
        assert isinstance(one, float) and stack.shape == (1,)
        assert abs(one - stack[0]) <= 1e-14
        assert win.in_span(row, basis) == win.in_span(row[None, :], basis)
    both = np.array([inside, outside])
    rows = [win.span_residual(inside, basis), win.span_residual(outside, basis)]
    assert np.abs(win.span_residual(both, basis) - rows).max() <= 1e-12
    assert win.in_span(both[:1], basis) and not win.in_span(both, basis)
    # an empty stack has no residuals and lies in every span
    assert win.span_residual(np.zeros((0, 8)), basis).shape == (0,)
    assert win.in_span(np.zeros((0, 8)), basis)
    # against an empty basis the residual is the norm
    empty = np.zeros((0, 8), dtype=np.complex128)
    assert win.span_residual(outside, empty) == np.linalg.norm(outside)
    assert np.array_equal(
        win.span_residual(both, empty), np.linalg.norm(both, axis=1)
    )
    assert win.in_span(np.zeros(8), empty) and not win.in_span(outside, empty)


def test_span_intersection():
    e = np.eye(6, dtype=np.complex128)
    a = win.onb(np.vstack([e[0], e[1], e[2]]))
    b = win.onb(np.vstack([e[2], e[3], (e[0] + e[1]) / np.sqrt(2)]))
    inter = win.span_intersect(a, b)
    assert inter.shape[0] == 2
    for row in inter:
        assert win.in_span(row, a) and win.in_span(row, b)


def test_span_intersection_empty():
    e = np.eye(4, dtype=np.complex128)
    a = win.onb(e[:1])
    b = win.onb(e[1:2])
    assert win.span_intersect(a, b).shape[0] == 0
    assert win.span_intersect(a, np.zeros((0, 4), dtype=np.complex128)).shape[0] == 0


@pytest.mark.parametrize("seed", range(20))
def test_span_intersection_of_complex_spans(seed):
    """The principal vectors must be combinations of the rows, not of their
    conjugates: a shared complex row survives a unitary change of basis."""
    rng = np.random.default_rng(seed)

    def crand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    c, x1, x2, y1, y2 = crand(5, 9)
    q, _ = np.linalg.qr(crand(3, 3))
    a = q @ win.onb(np.array([c, x1, x2]))
    b = win.onb(np.array([c, y1, y2]))
    inter = win.span_intersect(a, b)
    assert inter.shape[0] == 1
    assert abs(abs(np.vdot(inter[0], c)) - np.linalg.norm(c)) <= 1e-8 * np.linalg.norm(c)
