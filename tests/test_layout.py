"""Layout rules that keep ``src/`` to what the lab and its benchmark run."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: module-level functions of ``src/annulab`` without such a reader yet, each
#: with the reason it stays
WAITING = {
    "apply_multiplier_to_coeffs": "ROADMAP item 9: uncalled, but the benchmark's "
    "per-layer metrics name it, so it leaves with a benchmark change",
    "apply_polar_to_monomial": "ROADMAP item 9: as apply_multiplier_to_coeffs",
    "build_bergman_section_quadrature": "ROADMAP item 4: the Bergman quadrature "
    "oracle waits for its zero-product-bergman row",
}


def _names(node) -> set[str]:
    """Every name ``node`` references: a name, an attribute, an import or
    its alias, or a string constant (the probes are looked up by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update({sub.name, sub.asname} - {None})
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_src_function_has_a_reader_outside_the_tests():
    """A function only tests call belongs in the tests (aim 3): each
    module-level function in ``src/annulab`` is referenced in ``src/``,
    ``scripts/`` or ``perfbench/`` (its own tests aside) outside its own
    body."""
    files = [
        p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts
    ]
    readers = []  # (file, top-level statement, names it references)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [(path, stmt, _names(stmt)) for stmt in tree.body]
    unread = {
        stmt.name
        for path, stmt, _ in readers
        if path.parent.name == "annulab" and isinstance(stmt, ast.FunctionDef)
        and not any(stmt.name in names for _, other, names in readers if other is not stmt)
    }
    # a waiting entry that gained a reader, or left src/, leaves the list
    assert unread == set(WAITING)
