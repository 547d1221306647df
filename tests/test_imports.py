"""Every name a module of src/quasisat imports is used in that module or
listed in its `__all__`, every top-level function, class or method
is read by some module of src/quasisat or listed in an `__all__`, only
`record.py` defines `__eq__` or `__hash__`, only walks over formulas
or dimensions call themselves, only a few named functions catch
`DomainError`, no module imports another's underscored name, and no
function of `solver.py` defines a function or lambda: stdlib AST scans,
so that an import left behind by a refactor, a helper only the tests
use, a second structural `==` or `hash`, a recursion over a term, a
second loop that decides which enclosure excludes zero, a private helper
shared between modules, or a closure in the check tree, fails the
suite."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quasisat"


def unused_imports(source: str) -> list[str]:
    """The imported names that no expression of the module reads, as
    'name (line n)'; `from __future__` imports do not count."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "from x import a, b as c\n__all__ = ['d']\nfrom y import d\n"
              "def f(v: a) -> None: pass\n")
    assert unused_imports(source) == ["c (line 3)", "os (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


# read outside src/quasisat only, each with the reason it stays
UNREAD_EXEMPT = {
    "Grid.n_cells": "bench/tracing.py reads it from solver.grid_cover's result",
}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes, as 'module.name', and their
    methods, as 'module.Class.name', whose name no module reads outside
    the definition itself and no `__all__` lists; dunder methods, which
    Python calls itself, do not count."""
    defs: list[tuple[str, str, ast.AST]] = []  # (label, name, node)
    trees = {module: ast.parse(source) for module, source in sources.items()}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{m.name}", m.name, m) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__")))
    reads: list[tuple[str, ast.AST]] = []  # (name, node that reads it)
    listed: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, node))
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                listed.update(e.value for e in node.value.elts)
    unread = []
    for label, name, node in defs:
        own = {id(n) for n in ast.walk(node)}
        if name not in listed and not any(r == name and id(n) not in own for r, n in reads):
            unread.append(label)
    return sorted(unread)


def test_the_scan_finds_unread_definitions():
    sources = {"a": "__all__ = ['pub']\ndef pub(): return _used()\ndef _used(): pass\n"
                    "def _rec(n): return _rec(n - 1)\n"
                    "class C:\n    def __init__(self): pass\n    def m(self): pass\n"
                    "    def read(self): pass\n",
               "b": "from a import C\nC().read()\n"}
    assert unread_definitions(sources) == ["a.C.m", "a._rec"]


def test_no_definition_is_read_only_by_tests():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    unread = unread_definitions(sources)
    assert [d for d in unread if d.split(".", 1)[1] not in UNREAD_EXEMPT] == []
    assert {d.split(".", 1)[1] for d in unread} == set(UNREAD_EXEMPT)


def eq_and_hash_definitions(source: str) -> list[str]:
    """The definitions of `__eq__` or `__hash__`, by `def` or by
    assignment, as 'name (line n)', in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ("__eq__", "__hash__")]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_scan_finds_eq_and_hash_definitions():
    source = ("class A:\n    def __eq__(self, o): return True\n    __hash__ = None\n"
              "class B:\n    __eq__: object = object.__eq__\n    def eq(self): pass\n"
              "    __ne__ = __lt__ = None\n")
    assert eq_and_hash_definitions(source) == [
        "__eq__ (line 2)", "__hash__ (line 3)", "__eq__ (line 5)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_record_defines_eq_and_hash(module):
    """`record.py` holds the package's one structural `==` and `hash`,
    which every term, formula and other record inherits."""
    names = [d.split()[0] for d in eq_and_hash_definitions((SRC / module).read_text())]
    assert names == (["__eq__", "__hash__", "__hash__"] if module == "record.py" else [])


def self_recursive_functions(source: str) -> list[str]:
    """The functions, as 'name', and methods, as 'Class.name', that call
    themselves: a function by its name, a method as `self.<name>`."""
    found = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    f = call.func if isinstance(call, ast.Call) else None
                    if (not in_class and isinstance(f, ast.Name) and f.id == name) or (
                            in_class and isinstance(f, ast.Attribute) and f.attr == name
                            and isinstance(f.value, ast.Name) and f.value.id == "self"):
                        found.append(prefix + name)
                        break
                visit(child, f"{prefix}{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), "", False)
    return found


def test_the_scan_finds_self_recursive_functions():
    source = ("def f(n): return f(n - 1)\ndef g(): return f(0)\n"
              "class C:\n    def m(self): return self.m()\n    def k(self): return m()\n"
              "    def n(self):\n        def inner(): return inner()\n        return C.n(self)\n")
    assert self_recursive_functions(source) == ["f", "C.m", "C.n.inner"]


# each recurses on formula structure, never on a term
RECURSIVE_ALLOWED = ["formulas.formula_text", "solver._compile"]


def test_only_formula_walks_recurse():
    """Only walks over a formula recurse: no walk over a term does (the
    parser's term method and the polynomial expansion among them keep
    explicit stacks), and the degree drops one dimension per pass of a
    loop."""
    found = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in self_recursive_functions(p.read_text())]
    assert found == RECURSIVE_ALLOWED


def nested_functions(source: str) -> list[str]:
    """The functions and lambdas defined inside a function, as
    'outer.inner' ('<lambda>' for a lambda), in walk order.  A method is
    not nested, unless its class is defined inside a function."""
    found = []

    def visit(node: ast.AST, prefix: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                  ast.ClassDef)):
                name = prefix + getattr(child, "name", "<lambda>")
                is_class = isinstance(child, ast.ClassDef)
                if in_function and not is_class:
                    found.append(name)
                visit(child, name + ".", in_function or not is_class)
            else:
                visit(child, prefix, in_function)

    visit(ast.parse(source), "", False)
    return found


def test_the_scan_finds_nested_functions():
    source = ("f = lambda: 0\ndef g():\n    return sorted([], key=lambda v: v)\n"
              "class C:\n    def m(self):\n        def inner():\n            pass\n"
              "        return inner\n"
              "def h():\n    class D:\n        def n(self):\n            pass\n    return D\n")
    assert nested_functions(source) == ["g.<lambda>", "C.m.inner", "h.D.n"]


def test_the_check_tree_holds_no_closure():
    """Every node of the solver's check tree is a `functools.partial` of a
    module-level function, so it holds no state but its arguments and
    the block frontiers: no solver function defines a function or a
    lambda."""
    assert nested_functions((SRC / "solver.py").read_text()) == []


def enclosing_functions(source: str, match) -> list[str]:
    """The function or method, as 'name' or 'Class.name', around each
    node for which `match` holds, in line order; one at module level is
    '<module>'."""
    found = []

    def visit(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if qualname == "<module>"
                      else f"{qualname}.{child.name}")
                continue
            if match(child):
                found.append((child.lineno, qualname))
            visit(child, qualname)

    visit(ast.parse(source), "<module>")
    return [name for _, name in sorted(found)]


def catches_domain_error(node: ast.AST) -> bool:
    """An `except` clause that names `DomainError`, alone or in a tuple."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any((k.id if isinstance(k, ast.Name) else getattr(k, "attr", None)) == "DomainError"
               for k in kinds)


def domain_error_handlers(source: str) -> list[str]:
    return enclosing_functions(source, catches_domain_error)


def test_the_scan_finds_domain_error_handlers():
    source = ("try:\n    pass\nexcept DomainError:\n    pass\n"
              "def f():\n    try:\n        pass\n    except (ValueError, I.DomainError):\n"
              "        pass\n    except ValueError:\n        pass\n"
              "class C:\n    def m(self):\n        def inner():\n            try:\n"
              "                pass\n            except DomainError:\n                pass\n"
              "        try:\n            pass\n        except:\n            pass\n")
    assert domain_error_handlers(source) == ["<module>", "f", "C.m.inner"]


# `certify` alone decides which equation excludes zero on a box; the
# others read one enclosure at a time (the CLI reports a DomainError as
# the ValueError it is)
DOMAIN_ERROR_HANDLERS = [
    "distance.sup_abs_enclosure", "distance.sup_abs_enclosure",  # cells, corners
    "evaluation.certify", "evaluation.positive_lower_bound",
    "solver._refutation_bound",  # its inequality loop
]


def test_only_the_named_functions_catch_domain_errors():
    found = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in domain_error_handlers(p.read_text())]
    assert found == DOMAIN_ERROR_HANDLERS


# `compile_term` alone resolves a term's variables, and so alone finds
# its free variables; `term_text` prints a variable's name, and the
# corpus runner prints its files' names
NAME_READERS = ["cli._corpus", "cli._corpus", "evaluation.compile_term", "terms.term_text"]


def name_readers(source: str) -> list[str]:
    """The function or method around each read of an attribute `name`,
    in line order."""
    return enclosing_functions(source, lambda node: isinstance(node, ast.Attribute)
                               and node.attr == "name" and isinstance(node.ctx, ast.Load))


def test_the_scan_finds_name_readers():
    source = ("def f(t):\n    t.name = 1\n    return t.name\n"
              "class C:\n    def m(self, v):\n        return v.name, v.names, v.__name__\n")
    assert name_readers(source) == ["f", "C.m"]


def test_only_the_named_functions_read_a_variable_name():
    """A second walk that collects a term's variables would have to read
    `Var.name`, and fails this test."""
    found = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in name_readers(p.read_text())]
    assert found == NAME_READERS


def private_imports(source: str) -> list[str]:
    """The names that begin with one underscore and are imported from
    another module, as 'name (line n)': a helper one module reads from
    another is part of that module's interface and carries a public name."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_the_scan_finds_private_imports():
    source = ("from __future__ import annotations\nfrom .a import b, _c as d\n"
              "import _e\ndef f():\n    from x import _g, __version__\n")
    assert private_imports(source) == ["_c (line 2)", "_g (line 5)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    assert private_imports((SRC / module).read_text()) == []


def module_imports(source: str, module: str) -> list[str]:
    """The imports of `module` or of names from it, as 'line n'."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.ImportFrom) and node.module == module)
            or (isinstance(node, ast.Import)
                and any(a.name == module for a in node.names))]


def test_the_scan_finds_fraction_imports():
    source = ("import math\nfrom fractions import Fraction\n"
              "def f():\n    import fractions\n")
    assert module_imports(source, "fractions") == ["line 2", "line 4"]
    assert module_imports(source, "math") == ["line 1"]


def test_the_series_kernels_import_no_fraction():
    """The enclosure kernels run on integers only, pi's Machin series
    included."""
    assert module_imports((SRC / "series.py").read_text(), "fractions") == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    """Term, formula and record classes are plain slotted classes, so the
    package loads no `dataclasses` (which brings `inspect` with it)."""
    assert module_imports((SRC / module).read_text(), "dataclasses") == []


@pytest.mark.parametrize("statement", ["import quasisat", "import quasisat.cli"])
def test_the_import_loads_neither_dataclasses_nor_inspect(statement):
    """A fresh interpreter without `site` (whose hooks may load anything)
    imports the package, and the CLI with it, without `dataclasses` or
    `inspect`, which cost as much as the package itself, and without
    `typing`: annotations and aliases use `collections.abc` and `X | None`."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {statement}; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
