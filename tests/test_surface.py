"""Every function and method in ``hopfblocks`` has a caller in ``hopfblocks``.

The check walks the syntax tree of each module in ``src/hopfblocks``.  A
definition counts as referenced when its name appears, as a plain name or
as an attribute, anywhere in the package outside its own body.  Matching
is by name only, so two methods that share a name share their references.
Dunder methods are exempt: the language calls them.  A function that only
tests or outside tools call either moves to ``tests/oracles.py`` or is
listed below with the reason it stays.
"""

import ast
from pathlib import Path

import hopfblocks

PACKAGE = Path(hopfblocks.__file__).parent

# name -> why it stays in the package without a caller there
ALLOWED = {
    "hom_space": "independent route to intertwiner spaces; perfbench/layers.py traces it",
    "coordinates": "HomSpace API, read by the hom-space test oracles",
    "save": "public API: writes an algebra file",
    "random_element": "Field API for randomised tests over every field",
    "zeta": "Field API: the root of unity that generates Q(zeta_n)",
}


def _definitions_and_references():
    defs = []  # (qualified name, name, references to the name inside its own body)
    refs: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] = refs.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] = refs.get(node.attr, 0) + 1
        owners = {child: f"{node.name}." for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = sum(1 for sub in ast.walk(node)
                          if (isinstance(sub, ast.Name) and sub.id == node.name)
                          or (isinstance(sub, ast.Attribute) and sub.attr == node.name))
                defs.append((f"{path.stem}.{owners.get(node, '')}{node.name}", node.name, own))
    return defs, refs


def test_every_helper_has_a_caller_in_the_package():
    defs, refs = _definitions_and_references()
    unreferenced = sorted(
        qual for qual, name, own in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and refs.get(name, 0) - own <= 0
    )
    assert unreferenced == []


def test_allowlist_names_only_unreferenced_definitions():
    defs, refs = _definitions_and_references()
    assert set(ALLOWED) <= {name for _, name, _ in defs}
    assert [name for name in ALLOWED if refs.get(name, 0) > 0] == []
