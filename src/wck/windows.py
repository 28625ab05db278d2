"""Finite-window evaluation of quotient elements.

Every generator acts on the graded path spaces: u(e) raises the level
by one, u*(e) lowers it, p(v) and z act within a level. An element with
a single grading offset d is therefore determined by its blocks, the
matrices mapping level k to level k + d, and modulo compact operators
only the tail of that block sequence matters. All structure
computations happen on a window of consecutive levels chosen deep
enough that the exact periodicity of the weights makes the blocks
repeat with period p.

The quotient norm of an element is modeled as the stable limit of
compressed window norms: compress to the span of levels [M, M + W),
widen W by p until the norm stops moving, and certify the value against
the translated window starting at M + p. Failure to stabilize is always
reported, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .elements import P, U, US, Z, CalkinElement, word_offset
from .elements import offset as element_offset
from .errors import ElementError, WindowUnstableError
from .graphs import Path

NORM_TOL = 1e-9
RANK_TOL = 1e-8
MAX_WIDENINGS = 12


@dataclass(frozen=True)
class WindowConfig:
    """Window-protocol parameters bound to a weight spec."""

    weights: object


def level_dim(graph, k):
    return graph.level_dim(k) if k >= 0 else 0


def letter_matrix(w, letter, k):
    """Matrix of one letter from level k to level k + its offset."""
    g = w.graph
    kind, payload = letter
    if kind == U:
        out = np.zeros((level_dim(g, k + 1), level_dim(g, k)), dtype=np.complex128)
        if k >= 0:
            cols = g.ending_at(k, g.esrc[payload])
            edge = Path((payload,), g.esrc[payload])
            out[g.prepend(k, edge), cols] = 1.0
        return out
    if kind == US:
        return letter_matrix(w, (U, payload), k - 1).conj().T
    if kind == P:
        out = np.zeros((level_dim(g, k), level_dim(g, k)), dtype=np.complex128)
        if k >= 0:
            idx = g.ending_at(k, payload)
            out[idx, idx] = 1.0
        return out
    if kind == Z:
        if k < 0:
            return np.zeros((0, 0), dtype=np.complex128)
        m = w.level_matrix(k)
        if payload == 1:
            return m
        return np.linalg.matrix_power(m, payload)
    raise ElementError("unknown letter kind %r" % (kind,))


def word_matrix(w, word, k):
    """Product of letter matrices for a word acting on level k."""
    g = w.graph
    # rightmost letter acts first; track the level each letter sees
    level = k
    out = None
    for letter in reversed(word):
        m = letter_matrix(w, letter, level)
        out = m if out is None else m @ out
        level += word_offset((letter,))
    if out is None:
        out = np.eye(level_dim(g, k), dtype=np.complex128)
    return out


def eval_block(x, k, w):
    """Matrix of a homogeneous element from level k to level k + offset."""
    d = element_offset(x)
    g = x.graph
    out = np.zeros((level_dim(g, k + d), level_dim(g, k)), dtype=np.complex128)
    for word, c in x.terms.items():
        out += c * word_matrix(w, word, k)
    return out


def annihilation_depth(x):
    """Deepest level reach below the starting level over all terms."""
    depth = 0
    for word in x.terms:
        running = 0
        for letter in reversed(word):
            running += word_offset((letter,))
            depth = max(depth, -running)
    return depth


def max_rise(x):
    """Highest level reach above the starting level over all terms."""
    rise = 0
    for word in x.terms:
        running = 0
        for letter in reversed(word):
            running += word_offset((letter,))
            rise = max(rise, running)
    return rise


def _window_matrix(x, w, M, W, blocks=None):
    """Compression of x to the span of levels [M, M + W), as one matrix.

    Each homogeneous part of x fills its block diagonal by eval_block.
    blocks, when given, keeps the evaluated blocks of x by (offset,
    level), so calls on overlapping windows evaluate each block once.
    """
    g = x.graph
    blocks = {} if blocks is None else blocks
    starts = np.cumsum([0] + [level_dim(g, k) for k in range(M, M + W)])
    out = np.zeros((starts[-1], starts[-1]), dtype=np.complex128)
    parts = {}
    for word, c in x.terms.items():
        parts.setdefault(word_offset(word), {})[word] = c
    for d, terms in parts.items():
        part = CalkinElement(g, terms)
        for i in range(max(0, -d), min(W, W - d)):
            if (d, M + i) not in blocks:
                blocks[d, M + i] = eval_block(part, M + i, w)
            out[starts[i + d]:starts[i + d + 1], starts[i]:starts[i + 1]] = (
                blocks[d, M + i]
            )
    return out


def calkin_norm(x, cfg):
    """Stable compressed-window norm of an element.

    The window [M, M + W) is chosen by rule: M = N + the annihilation
    depth of x + 2p, and W is the first multiple of p that is at least
    the reach of x plus p. It is widened by p until the norm stops moving
    (within NORM_TOL), at most MAX_WIDENINGS times, then certified
    against the window translated by p. Levels are capped so no single
    level exceeds graphs.MAX_LEVEL_DIM; hitting the cap before
    stabilization raises, it never degrades the answer silently.
    """
    w = cfg.weights
    if x.graph is not w.graph:
        raise ElementError("the element lives over a different graph")
    if x.is_zero:
        return 0.0
    p = w.p
    M = w.N + annihilation_depth(x) + 2 * p
    reach = max(annihilation_depth(x), max_rise(x))
    W = p * (1 + -(-reach // p))  # the least multiple of p >= reach + p
    g = x.graph

    def fits(width):
        return all(
            level_dim(g, k) <= graphs.MAX_LEVEL_DIM
            for k in range(M, M + width + p)
        )

    if not fits(W):
        raise WindowUnstableError(
            "window levels exceed the dimension guard %d before any norm "
            "estimate is possible; the graph grows too fast for this window"
            % graphs.MAX_LEVEL_DIM
        )
    blocks = {}
    prev = float(np.linalg.norm(_window_matrix(x, w, M, W, blocks), 2))
    for _ in range(MAX_WIDENINGS):
        wider = W + p
        if not fits(wider):
            raise WindowUnstableError(
                "norm did not stabilize before the level-dimension guard %d"
                % graphs.MAX_LEVEL_DIM
            )
        cur = float(np.linalg.norm(_window_matrix(x, w, M, wider, blocks), 2))
        if abs(cur - prev) <= NORM_TOL:
            shifted = float(
                np.linalg.norm(_window_matrix(x, w, M + p, wider, blocks), 2)
            )
            if abs(shifted - cur) <= NORM_TOL:
                return cur
        prev = cur
        W = wider
    raise WindowUnstableError(
        "norm did not stabilize after %d widenings" % MAX_WIDENINGS
    )


# -- span arithmetic ----------------------------------------------------------


def onb(rows, tol=RANK_TOL):
    """Orthonormal row basis of the row span, rank cut at tol (relative).

    Only the columns where some row is nonzero are orthonormalized, and
    the result is scattered back: a column that is zero in every row
    changes no singular value, and stays an exact zero in the basis.

    A 3-D rows is a stack of members (B, n, L), one stacked SVD; each
    member is cut against its own largest singular value, and its basis
    comes back zero padded to (B, min(n, L), L). Zero rows and zero
    columns are exact padding: they change no singular value, span and
    residual.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    if rows.ndim == 3:
        if 0 in rows.shape:
            return np.zeros(rows.shape[:1] + (0,) + rows.shape[2:], dtype=np.complex128)
        s, vh = np.linalg.svd(rows, full_matrices=False)[1:]
        return vh * (s > tol * s.max(axis=1, keepdims=True))[..., None]
    if rows.size == 0:
        width = rows.shape[1] if rows.ndim == 2 else 0
        return np.zeros((0, width), dtype=np.complex128)
    cols = np.flatnonzero(np.any(rows != 0, axis=0))
    s, vh = np.linalg.svd(rows[:, cols], full_matrices=False)[1:]
    keep = s > tol * s.max(initial=0.0)
    out = np.zeros((np.count_nonzero(keep), rows.shape[1]), dtype=np.complex128)
    out[:, cols] = vh[keep]
    return out


def _inner(x, y):
    """x.conj() @ y.T on the last two axes, conjugating the smaller operand."""
    if x.size <= y.size:
        return x.conj() @ np.swapaxes(y, -1, -2)
    return np.conj(x @ np.swapaxes(y.conj(), -1, -2))


def span_residual(vecs, basis):
    """Norm of the part of each row of vecs off the row span of an onb.

    A 2-D vecs is a stack of rows and gives one residual per row; a 1-D
    vecs is one row and gives one float. A 3-D vecs and basis are
    stacks of members (B, n, L) and (B, k, L), zero padded as onb gives
    them, with one residual per member row.
    """
    vecs = np.asarray(vecs)
    if basis.shape[-2]:
        vecs = vecs - np.conj(_inner(vecs, basis)) @ basis
    out = np.linalg.norm(vecs, axis=-1)
    return float(out) if out.ndim == 0 else out


def in_span(vecs, basis, tol=RANK_TOL):
    """Whether every row of vecs lies in the row span of an onb.

    A row passes when its residual is at most tol * max(1, |row|). A 1-D
    vecs is one row, and an empty stack passes.
    """
    bound = tol * np.maximum(1.0, np.linalg.norm(vecs, axis=-1))
    return bool(np.all(span_residual(vecs, basis) <= bound))


def span_intersect(a, b, tol=RANK_TOL):
    """Orthonormal basis of the intersection of two orthonormal row spans.

    Principal vectors with singular value within tol of 1 are taken as
    the intersection, then each is rechecked for membership in both
    spans so a near-miss never slips through.

    3-D a and b are stacks of zero-padded onbs (B, ka, L) and (B, kb,
    L), as onb gives them; the intersection of each member comes back
    zero padded, with one stacked SVD for the principal angles and one
    for the principal vectors.
    """
    if a.ndim == 2:
        out = span_intersect(a[None], b[None], tol)[0]
        return out[np.any(out != 0, axis=1)]
    if 0 in a.shape[1:] or 0 in b.shape[1:]:
        return np.zeros(a.shape[:1] + (0,) + a.shape[2:], dtype=np.complex128)
    u, s, _ = np.linalg.svd(_inner(a, b), full_matrices=False)
    # a.conj() @ b.T = U S V^H, so the principal vectors in span(a) are
    # the combinations u[:, k] of the rows of a, without conjugation
    vecs = onb(np.swapaxes(u * (s > 1.0 - tol)[:, None, :], -1, -2) @ a, tol)
    bound = 10 * tol * np.maximum(1.0, np.linalg.norm(vecs, axis=-1))
    inside = (span_residual(vecs, a) <= bound) & (span_residual(vecs, b) <= bound)
    return vecs * inside[..., None]
