"""Static checks on the layout of the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polyakit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _references(tree: ast.Module, own: set[str]) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import.  A
    module-level def does not refer to itself from its own body, an
    assignment does not read its target, and a bare name in `own` is the
    file's own binding, not a reference."""
    found = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id not in own \
                    and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def test_every_public_function_and_class_has_a_caller():
    public, referenced = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                public[node.name] = f"{path.stem}.{node.name}"
        referenced |= _references(tree, set())
    for path in TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree, _defined(tree))
    unused = sorted(where for name, where in public.items() if name not in referenced)
    assert not unused, f"no caller in src/ or tests/: {unused}"


def test_every_public_method_and_property_has_a_caller():
    # a method is read as an attribute, so any attribute of that name in src
    # or tests counts as its caller; dunders are called by the interpreter
    public, referenced = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public += [(node.name, f"{path.stem}.{cls.name}.{node.name}")
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("_")]
        referenced |= _references(tree, set())
    for path in TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree, _defined(tree))
    unused = sorted(where for name, where in public if name not in referenced)
    assert not unused, f"no caller in src/ or tests/: {unused}"


def test_every_private_name_has_a_caller_in_src():
    # a private function, class or constant that nothing in src reads is
    # dead code, such as a helper a refactor left behind; dunders are read by
    # the interpreter
    private, referenced = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private += [(name, f"{path.stem}.{name}") for name in _defined(tree)
                    if name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))]
        referenced |= _references(tree, set())
    unused = sorted(where for name, where in private if name not in referenced)
    assert not unused, f"no caller in src/: {unused}"


def test_no_module_reads_the_environment():
    # every setting comes in through a parameter or a CLI option, so the
    # truncation order is set in one place
    readers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv") \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                readers.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and {a.name for a in node.names} & {"environ", "getenv"}:
                readers.append(f"{path.stem}:{node.lineno}")
    assert not readers, f"environment read at {readers}"


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """Every function that an lru_cache or cache decorator wraps, bare or
    called, with no integer maxsize."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            if getattr(target, "attr", getattr(target, "id", None)) \
                    not in ("lru_cache", "cache"):
                continue
            size = ([k.value for k in call.keywords if k.arg == "maxsize"]
                    + call.args[:1]) if call else []
            if not (len(size) == 1 and isinstance(size[0], ast.Constant)
                    and type(size[0].value) is int):
                found.append(node.name)
    return found


def test_every_cache_is_bounded():
    # a cache with no integer maxsize keeps every key it is called with; a
    # per-tree invariant is kept on the tree instead (oracle._per_tree)
    unbounded = [f"{path.stem}.{name}" for path in SOURCES
                 for name in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unbounded, f"unbounded cache: {unbounded}"


def _arithmetic_raises(tree: ast.AST) -> set[int]:
    """Line numbers of every `raise ArithmeticError...` under tree."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
            and "ArithmeticError" in ast.unparse(node.exc or node)}


def test_only_the_exact_quotient_raises_arithmetic_error():
    # an exact division is guarded once, in families._exact_quotient, so no
    # recurrence keeps its own divmod-and-raise copy
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set().union(*(_arithmetic_raises(node) for node in tree.body
                                if isinstance(node, ast.FunctionDef)
                                and node.name == "_exact_quotient"))
        found += [f"{path.stem}:{line}" for line in _arithmetic_raises(tree) - allowed]
    assert not found, f"ArithmeticError raised outside _exact_quotient at {found}"


def test_no_module_rebinds_a_global():
    # what the process grows or remembers is a field of families._grown, so
    # no function rebinds a module-level name
    found = [f"{path.stem}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert not found, f"global statement at {found}"


GLOBAL_SETTERS = {"setrecursionlimit", "set_int_max_str_digits", "setcontext"}


def _called_name(node: ast.AST) -> str | None:
    """The function name of a call, bare or as an attribute."""
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_no_module_changes_interpreter_settings():
    # the recursion limit, the int/str digit limit and the thread's decimal
    # context stay as the caller set them; exact Decimal work runs on a local
    # Context
    setters = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _called_name(node) in GLOBAL_SETTERS:
                setters.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(_called_name(part) == "getcontext"
                       for t in targets for part in ast.walk(t)):
                    setters.append(f"{path.stem}:{node.lineno}")
    assert not setters, f"interpreter setting changed at {setters}"


HEAVY_MODULES = {"numpy", "scipy", "mpmath", "sympy"}
# each would lengthen every cold start: dataclasses pulls in inspect, ast and
# dis (about 6 ms, and its decorators another 9), csv only CSV output needs,
# hashlib loads OpenSSL (about 3.5 ms) and only a derived seed needs it
SLOW_STDLIB = ("dataclasses", "inspect", "csv", "hashlib")


def _imports_at_import_time(tree: ast.Module) -> list[tuple[str, int]]:
    """The modules an import statement names outside every function body:
    module level, and class bodies and blocks, which run on import."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append((node.module, node.lineno))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_a_heavy_library_on_import():
    # numpy alone takes about 0.12 s to import, as long as a whole cold CLI
    # request: a module that needs one imports it inside the function
    heavy = [f"{path.stem}:{line} {name}" for path in SOURCES
             for name, line in _imports_at_import_time(
                 ast.parse(path.read_text(encoding="utf-8")))
             if name.split(".")[0] in HEAVY_MODULES]
    assert not heavy, f"heavy import at module level: {heavy}"


def test_importing_polyakit_loads_no_slow_stdlib_module():
    # a fresh interpreter, so a module pulled in by another import counts too
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            + "".join(f"import polyakit.{path.stem}\n" for path in SOURCES
                      if path.stem != "__init__")
            + f"print(sorted((set(sys.modules) - before) & set({SLOW_STDLIB!r})))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", f"loaded on import: {done.stdout}"
