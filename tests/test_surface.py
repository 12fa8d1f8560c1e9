"""Every function and method in ``hopfblocks`` has a caller in ``hopfblocks``.

The check walks the syntax tree of each module in ``src/hopfblocks``.  A
definition counts as referenced when its name appears anywhere in the
package outside its own body: a module-level function as a plain name or
as an attribute, a method only as an attribute (``x.name``), so a builtin
or local of the same name is not taken for a call of the method.
Matching is by name only, so two methods that share a name share their
references.  Dunder methods are exempt: the language calls them.  A
function that only tests or outside tools call either moves to
``tests/oracles.py`` or is listed below with the reason it stays.
"""

import ast
from pathlib import Path

import hopfblocks

PACKAGE = Path(hopfblocks.__file__).parent

# name -> why it stays in the package without a caller there
ALLOWED = {
    "hom_space": "independent route to intertwiner spaces; perfbench/layers.py traces it",
    "save": "public API: writes an algebra file",
    "random_element": "Field API for randomised tests over every field",
    "zeta": "Field API: the root of unity that generates Q(zeta_n)",
}


def _definitions_and_references():
    # (qualified name, name, references to the name, those inside its own body)
    defs = []
    names: dict[str, int] = {}
    attrs: dict[str, int] = {}
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] = names.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] = attrs.get(node.attr, 0) + 1
    for path, tree in trees.items():
        owners = {child: f"{node.name}." for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = node in owners
                own = sum(1 for sub in ast.walk(node)
                          if (isinstance(sub, ast.Attribute) and sub.attr == node.name)
                          or (not method and isinstance(sub, ast.Name) and sub.id == node.name))
                total = attrs.get(node.name, 0) + (0 if method else names.get(node.name, 0))
                defs.append((f"{path.stem}.{owners.get(node, '')}{node.name}", node.name, total, own))
    return defs


def test_every_helper_has_a_caller_in_the_package():
    unreferenced = sorted(
        qual for qual, name, total, own in _definitions_and_references()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and total - own <= 0
    )
    assert unreferenced == []


def test_allowlist_names_only_unreferenced_definitions():
    defs = _definitions_and_references()
    assert set(ALLOWED) <= {name for _, name, _, _ in defs}
    assert [name for name in ALLOWED if any(total > 0 for _, n, total, _ in defs if n == name)] == []
