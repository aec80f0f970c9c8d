"""Source hygiene: no private helper under src/lighttails that nothing calls,
no public read of a law or a weight sequence that nothing calls, the
runtime dependencies pyproject.toml declares are the ones it imports, and
no test spells a pinned value that belongs in tests/pins.json."""

import ast
import hashlib
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lighttails"


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


# the law and weight layers: each public method or property is read under src/
# or patched by the benchmark's tracer
READ_CLASSES = ("HazardModel", "TailDistribution", "ScaledFactor", "WeightSequence")


def _unread_public(sources: dict, classes, exempt) -> list[str]:
    """Each public method and property of the named classes in the sources
    (file name -> text), as Class.name, that no source reads as an Attribute
    and that exempt does not name."""
    defined, read = [], set()
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=file)):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                defined += [(node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{owner}.{name}" for owner, name in defined
                  if name not in read and name not in exempt)


def _traced_names() -> set[str]:
    """The attribute names bench/tracing.py's _TARGETS patches."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_TARGETS"])
    return {entry.elts[1].value for entry in targets.elts}


def test_every_public_law_read_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    traced = _traced_names()
    assert "survival_derivative_signed_log" in traced
    unread = _unread_public(sources, READ_CLASSES, traced)
    assert not unread, f"public reads nothing under src/ reads: {unread}"


def test_the_guard_flags_an_unread_public_method():
    source = """
class Law:
    def read(self):
        return self.other.used()

    @property
    def shape(self):
        return 1

    def traced(self):
        return 2

    def __repr__(self):
        return "Law"

    def _private(self):
        return 3

    def used(self):
        return 4


class Bystander:
    def unread(self):
        return 5
"""
    assert _unread_public({"m.py": source}, ("Law",), {"traced"}) == ["Law.read", "Law.shape"]


def _absolute_imports(sources: dict) -> set[str]:
    """The dotted name of each absolute import, also one inside a function;
    `from a import b` names both a and a.b."""
    names = set()
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=file)):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _third_party_imports(sources: dict) -> set[str]:
    """The top-level name of each absolute import that is neither the standard
    library's nor the package's own."""
    names = {name.split(".")[0] for name in _absolute_imports(sources)}
    return names - set(sys.stdlib_module_names) - {"__future__", "lighttails"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group() for req in project["dependencies"]}
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert declared == _third_party_imports(sources) == {"numpy", "scipy"}


def test_no_source_imports_scipys_integrate_or_interpolate():
    # the library calls scipy's compiled QUADPACK extension and runs its own
    # PCHIP: either package would load tens of MB of scipy that it never calls
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert not {name for name in _absolute_imports(sources)
                if name.split(".")[:2] in (["scipy", "integrate"], ["scipy", "interpolate"])}


def test_the_import_scan_sees_imports_inside_functions():
    source = """
from __future__ import annotations
import os.path, numpy as np
from . import sibling
from lighttails.errors import ConfigError


def f():
    from scipy.integrate import quad
    from scipy import interpolate
    import jsonschema.validators
"""
    assert _third_party_imports({"m.py": source}) == {"numpy", "scipy", "jsonschema"}
    assert {"scipy.integrate", "scipy.interpolate"} <= _absolute_imports({"m.py": source})


# a float.hex or a sha256 digest: in a test, always a pin
PINNED_SHAPE = re.compile(r"-?0x[0-9a-f]\.[0-9a-f]+p[-+]\d+|[0-9a-f]{64}")


def _pin_literals(sources: dict) -> list[str]:
    """Each string literal of the sources (file name -> text), with where it
    is, that is shaped like a float.hex or a sha256 digest."""
    return [f"{file}:{node.lineno} {node.value}" for file, text in sources.items()
            for node in ast.walk(ast.parse(text, filename=file))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and PINNED_SHAPE.fullmatch(node.value)]


def test_no_test_spells_a_pin():
    sources = {path.name: path.read_text() for path in sorted((ROOT / "tests").glob("*.py"))}
    assert len(sources) > 10
    found = _pin_literals(sources)
    assert not found, f"pinned values belong in tests/pins.json: {found}"


def test_the_guard_flags_a_spelled_pin():
    spelled = [float.hex(-0.1), float.hex(1e300), hashlib.sha256(b"").hexdigest()]
    source = "\n".join([f"A = {spelled[0]!r}", f"B = ({spelled[1]!r}, 'inf', 0.1)",
                        f"def f():\n    return f'{{A}}' == {spelled[2]!r}"])
    assert _pin_literals({"m.py": source}) == [f"m.py:{line} {value}"
                                               for line, value in zip((1, 2, 4), spelled)]
