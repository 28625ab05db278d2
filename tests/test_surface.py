"""The public surface of wck: every public name has a caller.

Every public top-level function and class of src/wck, and every public
method of its classes, must be referenced somewhere in src/wck or
perfbench outside its own definition: by a name, an attribute, an
import, or a string constant (perfbench/spans.py names what it traces
by strings). The few names kept without such a caller are listed in
ALLOWED, each with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _parse(folder):
    return [ast.parse(path.read_text()) for path in sorted(folder.glob("*.py"))]


PACKAGE = _parse(ROOT / "src" / "wck")
CALLERS = PACKAGE + _parse(ROOT / "perfbench")

# "function", "Class" or "Class.method" -> why it stays without a caller
ALLOWED = {
    "Tower.bratteli_dot": "the Bratteli diagram in Graphviz form, for `--format dot`",
    "check_H": "Katsura's hereditary condition, a predicate of the paper",
    "build_fully_invariant": "the stage-n invariant ideal, an object of the paper",
    "zero": "the zero element, part of the *-algebra API",
    "adjoint": "the involution, part of the *-algebra API",
    "Verdict.simple": "the yes/no form of a simplicity verdict",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name):
    return not name.startswith("_")


def public_definitions():
    """(qualified name, bare name, node) of each public definition."""
    out = []
    for tree in PACKAGE:
        for node in tree.body:
            if not isinstance(node, _DEFS) or not _public(node.name):
                continue
            out.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    ("%s.%s" % (node.name, item.name), item.name, item)
                    for item in node.body
                    if isinstance(item, _DEFS) and _public(item.name)
                )
    return out


def _tokens(node):
    """The names a node refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".") + [node.asname] * bool(node.asname)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def references():
    """Bare name -> the enclosing definitions of each reference to it."""
    out = {}

    def visit(node, enclosing):
        for token in _tokens(node):
            out.setdefault(token, []).append(enclosing)
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in CALLERS:
        visit(tree, frozenset())
    return out


def unreferenced():
    refs = references()
    return {
        qual
        for qual, name, node in public_definitions()
        if not any(node not in enclosing for enclosing in refs.get(name, []))
    }


def test_every_public_name_has_a_caller():
    missing = unreferenced()
    assert sorted(missing - set(ALLOWED)) == [], "public names with no caller"
    assert sorted(set(ALLOWED) - missing) == [], "allowed names that gained a caller"
