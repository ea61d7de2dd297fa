"""The package's import layering, read from the source with ``ast``: modules
import each other at module level in one direction only, and a function
imports from the package only where a module below needs a class of one
above it.  The source holds no ``assert`` statement either, no top-level
definition that no code of the package names, but for a listed few, and no
dataclass field that neither the package nor its tests read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivdet"
TESTS = Path(__file__).resolve().parent


def _imported_modules(node: ast.AST) -> list[tuple[str, tuple[str, ...]]]:
    """(quivdet module, imported names) of an import statement, or
    nothing when it imports from outside the package; the package itself is
    the module "__init__"."""
    if isinstance(node, ast.ImportFrom):
        names = tuple(a.name for a in node.names)
        if node.level:
            if not node.module:  # from . import x: each name is a module
                return [(n, ()) for n in names]
            return [(node.module.split(".")[0], names)]
        if node.module and node.module.split(".")[0] == "quivdet":
            parts = node.module.split(".")
            return [(parts[1] if len(parts) > 1 else "__init__", names)]
        return []
    return [(a.name.split(".")[1] if "." in a.name else "__init__", ())
            for a in node.names if a.name.split(".")[0] == "quivdet"]


def _imports():
    """Per module, its module-level quivdet imports, and every function-level
    quivdet import as (module, qualified function name, imported module,
    imported names)."""
    top: dict[str, set[str]] = {}
    inner = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        top[module] = set()

        def visit(node, scope, in_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for target, names in _imported_modules(child):
                        if in_function:
                            inner.add((module, ".".join(scope), target, names))
                        else:
                            top[module].add(target)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, scope + [child.name], True)
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name], in_function)
                elif isinstance(child, ast.Lambda):
                    visit(child, scope + ["<lambda>"], True)
                else:
                    visit(child, scope, in_function)

        visit(ast.parse(path.read_text(encoding="utf-8")), [], False)
    return top, inner


def test_imports_are_layered():
    # module-level imports between quivdet modules form no cycle, so each
    # module builds only on those below it; quiver sits below reps, yet its
    # workspace and its canonical representations are reps classes, and
    # those three are the only imports from the package inside a function
    # (imports from outside it, such as sympy, are not counted)
    top, inner = _imports()
    assert "quiver" in top["reps"]
    done: set[str] = set()

    def walk(module, stack):
        assert module not in stack, f"import cycle: {' -> '.join(stack + [module])}"
        if module not in done:
            for target in sorted(top.get(module, ())):
                walk(target, stack + [module])
            done.add(module)

    for module in sorted(top):
        walk(module, [])
    assert inner == {
        ("quiver", "Quiver.workspace", "reps", ("Workspace",)),
        ("quiver", "_path_representation", "reps", ("Representation",)),
        ("quiver", "simple_at", "reps", ("Representation",)),
    }


def _asserts(text: str) -> list[int]:
    """Line numbers of the assert statements in the Python source text."""
    return [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]


def test_source_has_no_assert_statements():
    # invariants are explicit errors (errors.invariant), which still run
    # under python -O, where assert statements are stripped
    assert _asserts("def f(x):\n    assert x\n") == [2]
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    assert [f"{p.name}:{n}" for p in paths for n in _asserts(p.read_text(encoding="utf-8"))] == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced(sources: dict[str, str]) -> set[str]:
    """Top-level functions and classes, and the methods of top-level classes
    as "Class.method" (dunder methods aside, which Python calls), of the
    module sources (file name -> text) that no source but __init__.py names
    outside their own definition."""
    defined = []  # (name as listed, name as written, definition node)
    uses = []     # (name, the definition nodes the use sits inside)
    for filename, text in sources.items():
        tree = ast.parse(text)
        for stmt in tree.body:
            if isinstance(stmt, _DEFINITIONS):
                defined.append((stmt.name, stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                defined.extend((f"{stmt.name}.{d.name}", d.name, d) for d in stmt.body
                               if isinstance(d, _DEFINITIONS) and not d.name.startswith("__"))
        if filename == "__init__.py":
            continue

        def visit(node, inside):
            for child in ast.iter_child_nodes(node):
                name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
                if isinstance(name, str):
                    uses.append((name, inside))
                visit(child, inside | {id(child)} if isinstance(child, _DEFINITIONS) else inside)

        visit(tree, frozenset())
    return {listed for listed, name, node in defined
            if not any(used == name and id(node) not in inside for used, inside in uses)}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _unread_fields(defining, reading) -> set[str]:
    """The fields of the top-level dataclasses in the defining source texts,
    as "Class.field", whose name no attribute read in the reading source
    texts names; a field only ever passed to the constructor is dead weight."""
    fields = [(stmt.name, s.target.id) for text in defining
              for stmt in ast.parse(text).body
              if isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt)
              for s in stmt.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    read = {node.attr for text in reading for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)}
    return {f"{cls}.{name}" for cls, name in fields if name not in read}


# each top-level name or method that no code of the package names, with the
# reason it stays; perfbench traces or calls some, so they keep their names
UNREFERENCED = {
    "paths_between": "traced by perfbench/spans.py; public API",
    "cokernel": "traced by perfbench/spans.py; public API, the tests' reference quotient",
    "direct_sum": "called and traced by perfbench; public API with injections and projections",
    "intrinsic_kernel": "traced by perfbench/spans.py; public API, the formula's first ingredient",
    "zero_morphism": "called by perfbench/workloads.py; public API, the zero map",
    "dtr": "public API, the AR translate tau = D TrD D",
    "projective_cover": "public API, the dual of injective_hull",
    "inverse_nakayama_on_injmap": "public API; the reference transport of the TrD tests",
    "is_isomorphic": "public API; the iso test of the tests and the acceptance criteria",
    "top_multiplicities": "public API, the counterpart of socle_multiplicities",
    "socle": "public API, the counterpart of radical",
    "top": "public API, the counterpart of radical",
    "minimal_polynomial": "public API over decompose's Fitting splits",
    "zero_representation": "public API, the zero object",
    "precompose_matrix": "public API, the counterpart of postcompose_matrix",
    "rad_hom_basis": "public API; the tests check almost-factoring subspaces against it",
    "minimal_right_determiner": "public API, the one-call right determiner",
    "Mat.from_rows": "public API, the matrix of nested rows that the tests build their inputs with",
    "DecompositionResult.idempotents": "public API, the splitting idempotents a decomposition certifies",
    "RightMinimalResult.already_minimal": "public API, the report's already_minimal field as a property",
}


def test_source_has_no_unreferenced_definitions():
    # a definition no code path reaches is dead weight; those kept as public
    # API or as references the tests compare against are listed with a reason
    assert _unreferenced({"a.py": "def f():\n    return f()\n\ndef g():\n    return 0\n",
                          "b.py": "from .a import g\nx = g()\n",
                          "__init__.py": "from .a import f\nf()\n"}) == {"f"}
    assert _unreferenced({"a.py": "class C:\n    def __init__(self):\n        self.m()\n"
                                  "    def m(self):\n        return 0\n"
                                  "    def n(self):\n        return self.n()\n",
                          "b.py": "from .a import C\nC()\n"}) == {"C.n"}
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sorted(_unreferenced(sources)) == sorted(UNREFERENCED)
    # a dataclass field that no code reads, neither the package nor its tests
    assert _unread_fields(["@dataclass(frozen=True)\nclass R:\n    x: int\n    y: int\n"
                           "    z = 0\n\n@dataclass\nclass S:\n    w: int\n"],
                          ["def f(r):\n    return r.x, R(1, y=2)\n"]) == {"R.y", "S.w"}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert _unread_fields(sources.values(), [*sources.values(), *tests]) == set()
