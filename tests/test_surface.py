"""Every public name in src/fricke has a caller outside the tests, from the syntax tree.

A public name is a top-level function, class or constant, or a method of a
public class, or an attribute a public class assigns on ``self``, whose name
does not start with an underscore.  It has a caller when src/fricke or
perfbench/ refers to it outside its own definition.  A top-level name N of
module M is referred to as an attribute ``.N``, or as the name N in M itself
or in a file that imports N from M; a method only as an attribute, so a
builtin or a local variable of the same name does not count; an attribute
only as a read ``.N``, so an assignment is not a caller.

KEEP lists the names that stay without such a caller, each with its reason.
A name that gains a caller leaves KEEP.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fricke"

KEEP = {
    "charvar.reconstruct_rep": "the planned verify bridge rebuilds (X, Y) from monodromy traces",
    "charvar.solve_z": "acceptance criteria 3 and 5 compare z with both roots",
    "covering.admissible_weights": "acceptance criterion 6 checks every admissible weight",
    "spingraft.verify_spin_dictionary": "acceptance criterion 10 checks the spin dictionary",
    "spingraft.graft_modulus": "acceptance criterion 10 checks the grafted modulus",
    "algebra.evaluate_word": "ROADMAP item 8 evaluates J-words on the cover; the covering oracle test uses it",
    "dodeca.theorem91_passed": "acceptance criterion 1 judges verify_theorem91's rows with it",
}


def _public(name):
    return not name.startswith("_")


def _self_attributes(cls):
    """The public attribute names the methods of a class assign on self."""
    return {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self" and _public(node.attr)
    }


def _definitions(module, tree):
    """(qualified name, definition node, kind) for each public definition of a module.

    kind is "top" for a top-level name, "method" or "attribute"; an
    attribute has no definition node of its own (None).
    """
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _public(node.name):
                continue
            out.append((f"{module}.{node.name}", node, "top"))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{module}.{node.name}.{item.name}", item, "method")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _public(item.name)
                )
                out.extend(
                    (f"{module}.{node.name}.{name}", None, "attribute")
                    for name in sorted(_self_attributes(node))
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (f"{module}.{name.id}", node, "top")
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and _public(name.id)
            )
    return out


def _references(tree):
    """Counts of the names loaded, the attributes referred to and the attributes read in a subtree."""
    names, attrs, reads = Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
            reads[node.attr] += isinstance(node.ctx, ast.Load)
    return names, attrs, reads


def _imports(tree):
    """{local name: (module, name)} of the names a file imports with ``from M import N``."""
    return {
        alias.asname or alias.name: ((node.module or "").rpartition(".")[2], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _orphans():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    refs = {path: _references(tree) for path, tree in trees.items()}
    imports = {path: _imports(tree) for path, tree in trees.items()}
    attrs = sum((a for _, a, _ in refs.values()), Counter())
    reads = sum((r for _, _, r in refs.values()), Counter())
    orphans = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for qualname, node, kind in _definitions(module, trees[path]):
            name = qualname.rpartition(".")[2]
            if kind == "attribute":
                if reads[name] <= 0:
                    orphans.add(qualname)
                continue
            own_names, own_attrs, _ = _references(node)
            count = attrs[name] - own_attrs[name]
            if kind == "top":
                count += sum(
                    names[name]
                    for other, (names, _, _) in refs.items()
                    if other == path or imports[other].get(name) == (module, name)
                ) - own_names[name]
            if count <= 0:
                orphans.add(qualname)
    return orphans


def test_every_public_name_has_a_caller():
    orphans = _orphans()
    assert not orphans - KEEP.keys(), sorted(orphans - KEEP.keys())
    assert not KEEP.keys() - orphans, sorted(KEEP.keys() - orphans)
