"""Source guards: every derived structure has one owner, every
numerical threshold has one home, and the package holds no code that
nothing runs.

Lazily derived data lives on the class that owns it, set in its
constructor or as a cached property.  No module stores attributes on
objects it did not create as `self`, and no function keeps state in a
mutable default argument.  Comparisons read `get_tol()`, a tolerance
check goes through `config.gate`, which no NaN passes, and the pivot
and rounding thresholds are named constants in `config.py`; `cli.py`
compares nothing to the tolerance.
Every imported name is used, every function, class and method the
package defines is read by name inside it or traced by perfbench, and
every attribute it stores on self is read inside it.
Groups are built by their callers: the command line, build_table, and
gl2 itself, and no module imports another's underscore names.  No
check is an `assert`, which `python -O` strips, and no library check
samples: randomness is drawn only by the command line and by Dixon's
method, whose table the orthonormality gate decides.
"""

import ast
import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "qrep").glob("*.py"))
TRACING = TESTS.parent / "perfbench" / "tracing.py"

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set,
                     ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CALLS = ("dict", "list", "set", "bytearray")


def _is_mutable(node):
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS)


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and node.value.id != "self":
            yield node.lineno, f"attribute store on {node.value.id}.{node.attr}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            defaults = node.args.defaults + \
                [d for d in node.args.kw_defaults if d is not None]
            for d in defaults:
                if _is_mutable(d):
                    yield d.lineno, "mutable default argument"


def _probes(tree):
    """Name of the top-level definition around each hasattr/getattr call."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("hasattr", "getattr"):
                yield getattr(top, "name", "<module>")


def test_no_foreign_attribute_stores_or_mutable_defaults():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _offences(ast.parse(path.read_text()))]
    assert found == []


def test_attribute_probes_only_where_emit_duck_types_its_sink():
    found = [(path.name, name)
             for path in SOURCES
             for name in _probes(ast.parse(path.read_text()))]
    assert set(found) <= {("chartab.py", "emit")}


def test_small_float_literals_live_only_in_config():
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in SOURCES if path.name != "config.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and
             isinstance(node.value, float) and 0 < node.value < 1e-3]
    assert found == []


def _is_tol(node):
    return (isinstance(node, ast.Name) and node.id == "tol") or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "get_tol")


def _nan_blind_tol_comparisons(tree):
    """Line of each comparison that passes a NaN defect: d > tol,
    d >= tol, tol < d or tol <= d, which are all False for a NaN d."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Gt, ast.GtE)) and _is_tol(right) or \
                    isinstance(op, (ast.Lt, ast.LtE)) and _is_tol(left):
                yield node.lineno


def test_tolerance_gates_go_through_config_gate():
    # config.gate passes a defect only when defect <= tol, so a NaN
    # fails; d > tol is False for a NaN d, so a gate written that way
    # lets it through.  Selections such as d < tol stay
    found = [f"{path.name}:{line}"
             for path in SOURCES if path.name != "config.py"
             for line in _nan_blind_tol_comparisons(
                 ast.parse(path.read_text()))]
    assert found == []


def test_the_cli_compares_nothing_to_the_tolerance():
    # verify decides pass or fail by config.within_tol alone, the rule
    # config.gate applies, so cli.py holds no comparison with tol
    cli = ast.parse((TESTS.parent / "src" / "qrep" / "cli.py").read_text())
    found = [node.lineno for node in ast.walk(cli)
             if isinstance(node, ast.Compare)
             and any(_is_tol(side) for side in [node.left, *node.comparators])]
    assert found == []


def _unused_imports(tree):
    """(line, name) of each imported name that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_import_is_used():
    # the package's __init__ imports names only to export them
    paths = [path for path in SOURCES if path.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    found = [f"{path.parent.name}/{path.name}:{line}: {name}"
             for path in paths
             for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def _traced_targets():
    """perfbench's TARGETS as (module, attribute) pairs."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(modname, attr) for modname, attr, _, _ in tracing.TARGETS]


def test_every_traced_target_resolves():
    # perfbench's traced mode rebinds every TARGETS name, and looks a
    # method up in its class's own __dict__: a target that is deleted, or
    # only inherited, breaks the traced benchmark
    missing = []
    for modname, attr in _traced_targets():
        module = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
        if not callable(owner.get(name)):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _definitions(tree):
    """Qualified names of a module's top-level functions and classes,
    and of its classes' methods other than dunders."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield f"{top.name}.{node.name}"


def _names_read(tree):
    """Each read as "name" for a bare name, "module.name" for an
    attribute of a plain name, and ".name" for any attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            yield "." + node.attr
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}"


def _is_read(modname, name, read):
    # a method is read by any attribute read of its name; a top-level
    # definition only by its bare name or as <its module>.<name>, so a
    # method or builtin of the same name does not hide it
    owner, _, attr = name.rpartition(".")
    if owner:
        return "." + attr in read
    return name in read or f"{modname.rpartition('.')[2]}.{name}" in read


def test_every_definition_is_read_by_the_package():
    # a definition that only the package's exports and the tests reach is
    # dead code (a test oracle belongs in the tests); perfbench's traced
    # targets are exempt, since its tracer reads them by name
    paths = [path for path in SOURCES if path.name != "__init__.py"]
    trees = {f"qrep.{path.stem}": ast.parse(path.read_text())
             for path in paths}
    read = {name for tree in trees.values() for name in _names_read(tree)}
    traced = {f"{modname}.{attr}" for modname, attr in _traced_targets()}
    unread = [f"{modname}.{name}"
              for modname, tree in trees.items()
              for name in _definitions(tree)
              if not _is_read(modname, name, read)
              and f"{modname}.{name}" not in traced]
    assert unread == []


_GROUP_BUILDERS = ("GroupCtx", "make_group")


def _private_imports(tree):
    """(line, name) of each underscore name imported from a qrep module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qrep"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


def test_no_module_imports_another_modules_private_name():
    # a module reads another's data through its public methods, as weil
    # reads group ids through GroupCtx.ids_of, so a private helper can
    # change without reaching past its module
    found = [f"{path.name}:{line}: {name}"
             for path in SOURCES
             for line, name in _private_imports(ast.parse(path.read_text()))]
    assert found == []


def _group_builds(tree):
    """(top-level definition, line) of each GroupCtx(...) or
    make_group(...) call, by bare name or as an attribute."""
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in _GROUP_BUILDERS:
                yield getattr(top, "name", "<module>"), node.lineno


def test_groups_are_built_only_by_their_owners():
    # a library function takes its caller's context, as every SL2-level
    # construction does, so one command builds each group once
    allowed = {("chartab.py", "build_table")}
    found = [f"{path.name}:{line} in {name}"
             for path in SOURCES if path.name not in ("cli.py", "gl2.py")
             for name, line in _group_builds(ast.parse(path.read_text()))
             if (path.name, name) not in allowed]
    assert found == []


def test_no_check_is_an_assert():
    # python -O strips assert statements, and a bare AssertionError
    # escapes the command line's exit contract: a failed check raises a
    # QrepError such as VerificationFailed
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert) or (
                 isinstance(node, ast.Name) and node.id == "AssertionError")]
    assert found == []


def _random_draws(tree):
    """(top-level definition, line) of each read of np.random."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "random" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                yield getattr(top, "name", "<module>"), node.lineno


def test_randomness_only_in_the_cli_and_dixon():
    # a library check that samples covers only its sample; Dixon's random
    # combination is gated by the orthonormality of the table it yields
    allowed = {("repcore.py", "character_table_bruteforce")}
    found = [f"{path.name}:{line} in {name}"
             for path in SOURCES if path.name != "cli.py"
             for name, line in _random_draws(ast.parse(path.read_text()))
             if (path.name, name) not in allowed]
    assert found == []


def _stored_attributes(tree):
    """(line, name) of each attribute stored on self."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.lineno, node.attr


def _attributes_loaded(tree):
    """Names of the attributes a module reads, apart from the target of
    a subscript store such as self.x[i] = v, which writes into it."""
    written_into = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in written_into}


def test_every_stored_attribute_is_read_by_the_package():
    # state that only the tests read costs every caller its memory: an
    # oracle such as the inverse of an embedding is built in the tests
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    loaded = set().union(*map(_attributes_loaded, trees.values()))
    found = [f"{name}:{line}: self.{attr}"
             for name, tree in trees.items()
             for line, attr in _stored_attributes(tree)
             if attr not in loaded]
    assert found == []
