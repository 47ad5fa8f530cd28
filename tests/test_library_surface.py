"""The library's surface is what the library uses.

Every top-level function and class of ``src/eulerlab``, and every method
that is not a dunder, must be read somewhere in the package itself: as a
loaded name, as an attribute, or as an identifier string (a name that a
table or ``getattr`` looks up).  A definition that only the tests read is
code kept for its tests; delete it and test what the package calls.
"""

import ast
import pathlib

import eulerlab

PACKAGE = pathlib.Path(eulerlab.__file__).parent


def _defined(tree, module):
    """(qualified name, bare name) of each top-level def and class and each
    non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield "%s.%s" % (module, node.name), node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, defs[:2])
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__"))):
                    yield "%s.%s.%s" % (module, node.name, m.name), m.name


def _read(tree):
    """Every identifier the module reads."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            yield n.value


def unread_definitions(package=PACKAGE):
    defined, read = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(_defined(tree, path.stem))
        read.update(_read(tree))
    return sorted(q for q, name in defined.items() if name not in read)


def test_every_library_name_is_read_by_the_library():
    assert unread_definitions() == []


def test_the_scan_sees_a_name_nothing_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.kept = used()\n"
        "    def orphan_method(self):\n"
        "        return 'table_entry'\n"
        "def used():\n"
        "    return getattr(Box, 'looked_up')\n"
        "def looked_up():\n"
        "    pass\n"
        "def table_entry():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n")
    assert unread_definitions(tmp_path) == ["mod.Box.orphan_method",
                                            "mod.orphan"]
