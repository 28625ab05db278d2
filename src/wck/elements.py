"""Formal elements of the quotient algebra and their normal form.

An element is a complex linear combination of words over the letters

    u(e)   partial isometry of an edge e,
    u*(e)  its adjoint,
    p(v)   vertex projection,
    z      the weight operator,
    z^m    integer powers of it, including negative ones.

Words are typed by vertices. Every letter but z has a left and a right
vertex: u(e) is r(e) | s(e), u*(e) is s(e) | r(e) and p(v) is v | v.
The weights are bimodule maps, so z commutes with every p(v) and the
typing skips over it; all weight dependence enters later, through
evaluation. One left-to-right pass rewrites a word:

    a letter whose left vertex differs from the right vertex of the
    previous typed letter kills the word;
    an adjacent pair u*(e) u(f) becomes p(s(e)), or 0 when e != f;
    adjacent powers of z merge;
    a p(v) records its vertex and is dropped.

A word left with no u or u* keeps one leading p(v) of its vertex. A
word with no vertex at all (the empty word or a power of z) is the sum
of its copies at every vertex, so the unit is the sum of the p(v).
Every element then has exactly one normal form, which stores each
surviving word once with its accumulated coefficient: equal elements
compare equal, and mul is associative on normal forms.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re

from .errors import ElementError, check_index

# letter kinds
U = "u"      # u(e), payload: edge index
US = "u*"    # u*(e), payload: edge index
P = "p"      # p(v), payload: vertex index
Z = "z"      # z^m, payload: integer exponent


class CalkinElement:
    """Normalized linear combination of words over the quotient letters."""

    def __init__(self, graph, terms):
        self.graph = graph
        self.terms = dict(terms)

    def __eq__(self, other):
        return (
            isinstance(other, CalkinElement)
            and self.graph is other.graph
            and self.terms == other.terms
        )

    def __repr__(self):
        return "CalkinElement(%s)" % (element_str(self) or "0")

    @property
    def is_zero(self):
        return not self.terms


def _typing(graph, letter):
    """(left, right) vertices of a letter other than z."""
    kind, payload = letter
    if kind == U:
        return graph.edst[payload], graph.esrc[payload]
    if kind == US:
        return graph.esrc[payload], graph.edst[payload]
    return payload, payload


def _end_vertex(graph, word, side):
    """Left (side 0) or right (side 1) vertex of a word; None without one."""
    typed = [letter for letter in word if letter[0] != Z]
    return _typing(graph, typed[-side])[side] if typed else None


def _normalize_word(graph, word):
    """Rewrite a letter tuple to normal form; None when the word dies.

    One left-to-right pass of the typing rule in the module docstring.
    A word with no vertex comes back as its merged z letters alone.
    """
    out = []
    vertex = None  # right vertex of the last typed letter
    for letter in word:
        kind, payload = letter
        if kind == Z:
            if out and out[-1][0] == Z:
                payload += out.pop()[1]
            if payload:
                out.append((Z, payload))
            continue
        left, right = _typing(graph, letter)
        if vertex is not None and left != vertex:
            return None
        vertex = right
        if kind == U and out and out[-1][0] == US:
            if out.pop()[1] != payload:
                return None
        elif kind != P:
            out.append(letter)
    if vertex is not None and all(kind == Z for kind, _ in out):
        out.insert(0, (P, vertex))
    return tuple(out)


def _accumulate(graph, terms, word, coeff):
    """Add coeff times the normalized word into a term dict.

    A word with no vertex is added once at every vertex.
    """
    normal = _normalize_word(graph, word)
    if normal is None or coeff == 0:
        return
    if all(kind == Z for kind, _ in normal):
        copies = [((P, v),) + normal for v in range(graph.n_vertices)]
    else:
        copies = [normal]
    for key in copies:
        c = terms.get(key, 0j) + coeff
        if c == 0:
            terms.pop(key, None)
        else:
            terms[key] = c


def _coefficient(c):
    """c as a complex number; anything but a finite number raises ElementError."""
    if isinstance(c, numbers.Number) and not isinstance(c, bool):
        try:
            value = complex(c)
        except OverflowError:
            value = None
        if value is not None and cmath.isfinite(value):
            return value
    raise ElementError("a coefficient must be a finite number, got %r" % (c,))


def make(graph, word, coeff=1.0):
    """Element from one letter tuple, e.g. ((U, 0), (Z, 1), (US, 2)).

    coeff must be a finite number, or the call raises ElementError.
    """
    for kind, payload in word:
        if kind in (U, US):
            check_index(payload, 0, graph.n_edges - 1, "an edge index", ElementError)
        elif kind == P:
            check_index(
                payload, 0, graph.n_vertices - 1, "a vertex index", ElementError
            )
        elif kind == Z:
            check_index(payload, -math.inf, math.inf, "a z exponent", ElementError)
        else:
            raise ElementError("unknown letter kind %r" % (kind,))
    terms = {}
    _accumulate(graph, terms, word, _coefficient(coeff))
    return CalkinElement(graph, terms)


def zero(graph):
    return CalkinElement(graph, {})


def unit(graph):
    """The unit: the sum of the vertex projections p(v)."""
    return make(graph, ())


def add(a, b):
    _check_same_graph(a, b)
    terms = dict(a.terms)
    for word, c in b.terms.items():
        c2 = terms.get(word, 0j) + c
        if c2 == 0:
            terms.pop(word, None)
        else:
            terms[word] = c2
    return CalkinElement(a.graph, terms)


def scale(c, a):
    """c times a; c must be a finite number, or the call raises ElementError."""
    c = _coefficient(c)
    _check_element(a)
    if c == 0:
        return CalkinElement(a.graph, {})
    return CalkinElement(a.graph, {w: c * x for w, x in a.terms.items()})


def sub(a, b):
    return add(a, scale(-1.0, b))


def mul(a, b):
    """The product; a term of a meets the terms of b at its right vertex.

    A word with no vertex, which no normal form has, meets every term.
    """
    _check_same_graph(a, b)
    g = a.graph
    groups = [[] for _ in range(g.n_vertices)]
    for wb, cb in b.terms.items():
        v = _end_vertex(g, wb, 0)
        for group in groups if v is None else [groups[v]]:
            group.append((wb, cb))
    terms = {}
    for wa, ca in a.terms.items():
        v = _end_vertex(g, wa, 1)
        for wb, cb in b.terms.items() if v is None else groups[v]:
            _accumulate(g, terms, wa + wb, ca * cb)
    return CalkinElement(g, terms)


def adjoint(a):
    _check_element(a)
    terms = {}
    for word, c in a.terms.items():
        conj = []
        for kind, payload in reversed(word):
            if kind == U:
                conj.append((US, payload))
            elif kind == US:
                conj.append((U, payload))
            else:
                conj.append((kind, payload))
        _accumulate(a.graph, terms, tuple(conj), c.conjugate())
    return CalkinElement(a.graph, terms)


def word_offset(word):
    """Grading offset: how many levels the word raises."""
    return sum(1 if k == U else -1 if k == US else 0 for k, _ in word)


def offset(a):
    """Common grading offset of a homogeneous element.

    The zero element reports offset 0; mixed-grading elements raise.
    """
    _check_element(a)
    offsets = {word_offset(w) for w in a.terms}
    if not offsets:
        return 0
    if len(offsets) > 1:
        raise ElementError("element mixes grading offsets %s" % sorted(offsets))
    return offsets.pop()


def _check_element(a):
    if not isinstance(a, CalkinElement):
        raise ElementError("not an element: %r" % (a,))


def _check_same_graph(a, b):
    _check_element(a)
    _check_element(b)
    if a.graph is not b.graph:
        raise ElementError("elements live over different graphs")


# -- string grammar -----------------------------------------------------------

_FACTOR_RE = re.compile(
    r"""^(?:
        (?P<one>1) |
        (?P<z>z(?:\^(?P<zexp>-?\d+))?) |
        u\*\((?P<us>[^()]+)\) |
        u\((?P<u>[^()]+)\) |
        p\((?P<p>[^()]+)\)
    )$""",
    re.VERBOSE,
)

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?[jJ]?$")


def _split_top_level(text, seps, keep_sep=False):
    """Split on separator characters, respecting parentheses and exponents.

    With keep_sep the separator starts the next part, which is how signs
    stay attached to their terms.
    """
    parts = []
    buf = []
    depth = 0
    prev = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ElementError("unbalanced parentheses in %r" % text)
        if ch in seps and depth == 0 and prev not in ("e", "E", "^") and buf:
            stripped = "".join(buf).strip()
            # a buffer of bare signs is a sign run for the coming term,
            # not a term of its own
            if stripped and not all(c in "+-" for c in stripped):
                parts.append("".join(buf))
                buf = [ch] if keep_sep else []
                prev = ch
                continue
        buf.append(ch)
        prev = ch
    if depth != 0:
        raise ElementError("unbalanced parentheses in %r" % text)
    parts.append("".join(buf))
    return parts


_SCALAR_PREFIX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[jJ]?)\s*\*\s*"
)


def parse_element(graph, text):
    """Parse the dotted word grammar.

    Terms are separated by top-level + and -; factors within a term by
    dots. Factors are u(edge), u*(edge), p(vertex), z, z^m (integer m,
    negative allowed), or 1. A term may carry scalar prefixes glued with
    '*' as in "2.5*u(e1)"; a term that is just a number is a multiple of
    the unit. Decimal scalars must use the '*' form, since a dot inside
    a term separates factors.
    """
    if not isinstance(text, str):
        raise ElementError("element must be a string, got %r" % (text,))
    text = text.strip()
    if not text:
        raise ElementError("empty element string")
    result = CalkinElement(graph, {})
    for chunk in _split_top_level(text, "+-", keep_sep=True):
        chunk = chunk.strip()
        if not chunk:
            raise ElementError("empty term in %r" % text)
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        if not chunk:
            raise ElementError("dangling sign in %r" % text)
        result = add(result, _parse_term(graph, chunk, sign))
    if not all(map(cmath.isfinite, result.terms.values())):
        raise ElementError("coefficients of %r overflow" % text)
    return result


def _parse_term(graph, chunk, sign):
    coeff = complex(sign)
    m = _SCALAR_PREFIX_RE.match(chunk)
    while m:
        coeff = _scaled(coeff, m.group(1))
        chunk = chunk[m.end():].strip()
        m = _SCALAR_PREFIX_RE.match(chunk)
    if not chunk:
        raise ElementError("scalar prefix without a factor")
    if _NUMBER_RE.match(chunk):
        return scale(_scaled(coeff, chunk), unit(graph))
    word = []
    for factor in _split_top_level(chunk, "."):
        factor = factor.strip()
        if not factor:
            raise ElementError("empty factor in %r" % chunk)
        if _NUMBER_RE.match(factor):
            coeff = _scaled(coeff, factor)
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ElementError("cannot parse factor %r" % factor)
        if m.group("one"):
            continue
        if m.group("z"):
            try:
                exp = int(m.group("zexp") or 1)
            except ValueError as exc:
                raise ElementError(
                    "exponent of z has %d digits" % len(m.group("zexp"))
                ) from exc
            word.append((Z, exp))
        elif m.group("u") is not None:
            word.append((U, _lookup(graph.eindex, "edge", m.group("u"))))
        elif m.group("us") is not None:
            word.append((US, _lookup(graph.eindex, "edge", m.group("us"))))
        elif m.group("p") is not None:
            word.append((P, _lookup(graph.vindex, "vertex", m.group("p"))))
    if not word:
        return scale(coeff, unit(graph))
    return make(graph, tuple(word), coeff)


def _scaled(coeff, text):
    """coeff times the scalar literal text; a non-finite product raises."""
    out = coeff * complex(text)
    if not cmath.isfinite(out):
        raise ElementError("coefficient overflows at scalar %r" % text)
    return out


def _lookup(table, kind, name):
    """Index of a named edge or vertex (graph.eindex / graph.vindex)."""
    name = name.strip()
    if name not in table:
        raise ElementError("unknown %s %r" % (kind, name))
    return table[name]


def _fmt_scalar(x):
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def element_str(a):
    """Render an element back into the dotted grammar.

    A coefficient with both real and imaginary parts becomes two terms
    over the same word, since scalars in the grammar are real or purely
    imaginary; parsing re-adds them.
    """
    _check_element(a)
    if not a.terms:
        return "0"
    pieces = []
    for word in sorted(a.terms, key=_word_sort_key):
        c = a.terms[word]
        factors = []
        for kind, payload in word:
            if kind == U:
                factors.append("u(%s)" % a.graph.edges[payload].name)
            elif kind == US:
                factors.append("u*(%s)" % a.graph.edges[payload].name)
            elif kind == P:
                factors.append("p(%s)" % a.graph.vertices[payload])
            else:
                factors.append("z" if payload == 1 else "z^%d" % payload)
        body = ".".join(factors)
        if c.real != 0:
            mag = abs(c.real)
            prefix = body if mag == 1 else "%s*%s" % (_fmt_scalar(mag), body)
            pieces.append((c.real < 0, prefix))
        if c.imag != 0:
            mag = abs(c.imag)
            pieces.append((c.imag < 0, "%sj*%s" % (_fmt_scalar(mag), body)))
    out = []
    for i, (neg, text) in enumerate(pieces):
        if i == 0:
            out.append("-" + text if neg else text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)


def _word_sort_key(word):
    return (len(word), word)
