"""The layout of `src/ngclab`: no top-level definition that nothing reaches.

The package is read with `ast`, never imported.  The roots are every
top-level definition of `cli.py`, every name `ngclab/__init__` imports and
every name that module-level code reads (an assignment's value, a
decorator, a default, a class's bases, the `__main__` guard).  From the
roots, the scan follows each `ast.Name` and each `ast.Attribute` on an
imported module through the bodies of the top-level functions and classes
it reaches, across `from .x import y` and `from . import x` imports.  A
top-level function, class or assigned name that it never reaches is code
or data that only the tests, or nothing, could read; its place is a test
reference (`tests/*_reference.py`), the tests themselves, or nowhere.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ngclab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Module:
    """One module's top-level definitions and the names its imports bind."""

    def __init__(self, path: Path):
        self.name = path.stem
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        # name -> top-level function, class or assignment
        self.defs = {stmt.name: stmt for stmt in self.tree.body
                     if isinstance(stmt, DEFINITIONS)}
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name) and not node.id.startswith("__"):
                            self.defs[node.id] = stmt
        self.imports = {}    # local name -> (module, name) it was imported as
        self.modules = {}    # local name -> a module of the package
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is not None:
                        self.imports[local] = (node.module, alias.name)
                    elif (PACKAGE / f"{alias.name}.py").exists():
                        self.modules[local] = alias.name
                    else:
                        self.imports[local] = ("__init__", alias.name)

    def module_level_code(self):
        """The parts of the module that run at import, apart from the
        bodies of its top-level functions and classes."""
        for stmt in self.tree.body:
            if isinstance(stmt, DEFINITIONS):
                yield from stmt.decorator_list
                if isinstance(stmt, ast.ClassDef):
                    yield from stmt.bases
                    yield from stmt.keywords
                else:
                    yield from stmt.args.defaults
                    yield from (d for d in stmt.args.kw_defaults if d is not None)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if stmt.value is not None:
                    yield stmt.value
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt


def load_package() -> dict:
    return {module.name: module for module in map(Module, sorted(PACKAGE.glob("*.py")))}


def resolve(modules: dict, module: str, name: str):
    """The (module, name) of the top-level definition that a name read in a
    module refers to, through its imports, or None for a builtin or a name
    from outside the package."""
    while name not in modules[module].defs:
        if name not in modules[module].imports:
            return None
        module, name = modules[module].imports[name]
    return module, name


def references(modules: dict, module: str, nodes):
    """The top-level definitions that the given syntax trees read."""
    here = modules[module]
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                target = resolve(modules, module, node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in here.modules):
                target = resolve(modules, here.modules[node.value.id], node.attr)
            else:
                continue
            if target is not None:
                yield target


def unreached(modules: dict) -> list[str]:
    """Every top-level definition that the scan from the roots never reaches."""
    roots = [("cli", name) for name in modules["cli"].defs]
    roots += [target for local in modules["__init__"].imports
              if (target := resolve(modules, "__init__", local)) is not None]
    for name, module in modules.items():
        roots += references(modules, name, module.module_level_code())
    reached, stack = set(), roots
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        module, name = key
        stack += references(modules, module, [modules[module].defs[name]])
    return sorted(f"{module}.{name}" for module, m in modules.items()
                  for name in m.defs if (module, name) not in reached)


# the inclusion tables wait for `check --explain` (ROADMAP item 6), which is
# to print a program's class beside the inclusions it implies
WAITING = ["transformers.COREACH_INCLUSION", "transformers.REACH_INCLUSION"]


def test_every_top_level_definition_is_reached():
    assert unreached(load_package()) == WAITING


def test_the_scan_reports_a_definition_that_nothing_reads():
    modules = load_package()
    tree = modules["syntax"].tree
    tree.body.append(ast.parse("def _orphan():\n    return pretty_program\n").body[0])
    modules["syntax"].defs["_orphan"] = tree.body[-1]
    assert unreached(modules) == ["syntax._orphan"] + WAITING


def test_the_scan_reports_a_module_constant_that_nothing_reads():
    modules = load_package()
    tree = modules["theorems"].tree
    tree.body.append(ast.parse("_ORPHAN = len(THEOREM_IDS)\n").body[0])
    modules["theorems"].defs["_ORPHAN"] = tree.body[-1]
    assert unreached(modules) == ["theorems._ORPHAN"] + WAITING

