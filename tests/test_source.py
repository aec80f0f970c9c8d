"""Source hygiene: no private helper under src/lighttails that nothing calls."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lighttails"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unreferenced(sources: dict) -> list[str]:
    """Each private function, method, class and module constant of the
    sources (file name -> text), with where it is defined, that no source
    reads as a Name or an Attribute."""
    defined, referenced = {}, set()
    for file, text in sources.items():
        tree = ast.parse(text, filename=file)
        for node in tree.body:  # module constants
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    defined.setdefault(target.id, f"{file}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.setdefault(node.name, f"{file}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in referenced)


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    unused = _unreferenced(sources)
    assert not unused, f"private names nothing under src/ reads: {unused}"


def test_the_guard_flags_an_unreferenced_helper():
    source = """
_USED = 1
_UNUSED = 2


def _helper():
    return _USED


class _Box:
    def _method(self):
        return self._field
"""
    assert _unreferenced({"m.py": source}) == [
        "_Box (m.py:10)", "_UNUSED (m.py:3)", "_helper (m.py:6)", "_method (m.py:11)"]
