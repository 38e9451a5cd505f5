"""Every module and top-level name under ``src/repro`` is used by something
that runs.

The roots are the CLI and every script under ``benchmarks/``,
``examples/`` and ``perfbench/``; tests are not roots, so a module only its
own tests import counts as dead.  The walk reads source with ``ast`` and
executes no import.  Package ``__init__`` files are not followed (a
re-export is not a use): ``from pkg import Name`` resolves to the
submodule ``pkg/__init__.py`` imports ``Name`` from.  The name check then
scans the reached modules and the root scripts for references.

Every private attribute ``src/repro`` stores on ``self`` is also read
there, so no cache field or handle outlives its last reader.

The test modules are held to a smaller rule: each name a ``tests/*.py``
module imports is used in it, so its imports say which code it
exercises.
"""

import ast
import re
import pathlib

REPO_ROOT = pathlib.Path(__file__).parent.parent
SRC = REPO_ROOT / "src"
ROOT_DIRS = ("benchmarks", "examples", "perfbench")

#: ROADMAP "Network listen, wired or deleted": the PSS classifier waits to
#: be wired into the Fig. 6 channel-selection path.
UNREACHED_BY_DESIGN = {"repro.phy.netlisten"}


def _modules():
    """Dotted module name -> path, for every file under ``src/repro``."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


def _imports(path, name):
    """``(module, imported names)`` for each import statement in ``path``."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base, [alias.name for alias in node.names]


def _targets(base, names, modules):
    """The non-package modules one import statement reaches."""
    path = modules.get(base)
    if path is None:
        return
    if path.name != "__init__.py":
        yield base
        return
    for attr in names:
        if f"{base}.{attr}" in modules:
            yield from _targets(f"{base}.{attr}", (), modules)
            continue
        # A re-exported name: follow the package's own import of it.
        for inner, inner_names in _imports(path, base):
            if attr in inner_names:
                yield from _targets(inner, [attr], modules)


def _reached():
    modules = _modules()
    stack = [(modules["repro.cli"], "repro.cli")] + [
        (path, path.stem)
        for folder in ROOT_DIRS
        for path in sorted((REPO_ROOT / folder).rglob("*.py"))
    ]
    seen = {"repro.cli"}
    while stack:
        path, name = stack.pop()
        for base, names in _imports(path, name):
            for target in _targets(base, names, modules):
                if target not in seen:
                    seen.add(target)
                    stack.append((modules[target], target))
    return seen, modules


def test_every_src_module_is_reached():
    reached, modules = _reached()
    leaf = {name for name, path in modules.items() if path.name != "__init__.py"}
    unreached = sorted(leaf - reached - UNREACHED_BY_DESIGN)
    assert not unreached, (
        "modules no CLI command, benchmark, example or perfbench workload "
        f"imports: {unreached}"
    )


def test_named_exception_is_still_unreached():
    reached, modules = _reached()
    for name in UNREACHED_BY_DESIGN:
        assert name in modules, f"{name} is gone: drop it from the exception"
        assert name not in reached, f"{name} is now reached: drop the exception"


#: Top-level names no non-test code references, each with why it stays.
#: (Every name in the ``UNREACHED_BY_DESIGN`` modules is exempt as well.)
UNREFERENCED_BY_DESIGN = {
    "repro.phy.harq.expected_attempts": (
        "oracle: tests/test_exact_kernels.py checks harq_goodput_scale "
        "against delivery_probability / expected_attempts"
    ),
    "repro.phy.harq.delivery_probability": "oracle: see expected_attempts",
    "repro.sim.checkpoint.registered_dataclasses": (
        "guard: tests/test_checkpoint_registry.py pins the checkpoint "
        "dataclass whitelist through it"
    ),
    "repro.sim.topology.grid_topology": "fixture builder that many tests share",
    "repro.obs.runtime.enable": (
        "the activation API that docs/OBSERVABILITY.md documents"
    ),
    "repro.obs.trace.jsonl_without_wall": (
        "strips wall-clock fields so tests can compare exported JSONL "
        "traces byte for byte (docs/OBSERVABILITY.md)"
    ),
}

#: ``"package.module:name"`` strings, the lazy references of registries.
LAZY_REF = re.compile(r"^repro(?:\.\w+)+:(\w+)$")


def _defined(path):
    """Names of the top-level ``def`` and ``class`` statements in ``path``."""
    return [
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _used_names(path):
    """``(name, enclosing top-level def)`` for every reference in ``path``.

    Names, attributes, imported names and lazy ``"module:name"`` strings
    count; the imports of a package ``__init__`` are re-exports and do not.
    """
    reexports = path.name == "__init__.py"
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom) and not reexports:
                for alias in node.names:
                    yield alias.name, owner
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = LAZY_REF.match(node.value)
                if match:
                    yield match.group(1), owner


def _unreferenced():
    """``module.name`` of each top-level name only its own body uses."""
    reached, modules = _reached()
    scanned = [modules[name] for name in sorted(reached)] + [
        path for folder in ROOT_DIRS for path in sorted((REPO_ROOT / folder).rglob("*.py"))
    ]
    uses = {}
    for path in scanned:
        for name, owner in _used_names(path):
            uses.setdefault(name, set()).add((path, owner))
    found = []
    for module, path in sorted(modules.items()):
        if module in UNREACHED_BY_DESIGN:
            continue
        for name in _defined(path):
            if not uses.get(name, set()) - {(path, name)}:
                found.append(f"{module}.{name}")
    return found


def test_every_src_name_is_referenced():
    unreferenced = [
        name for name in _unreferenced() if name not in UNREFERENCED_BY_DESIGN
    ]
    assert not unreferenced, (
        "top-level names only tests (or nothing) reference: "
        f"{unreferenced}"
    )


def test_named_survivors_are_still_unreferenced():
    stale = sorted(set(UNREFERENCED_BY_DESIGN) - set(_unreferenced()))
    assert not stale, f"now referenced or gone: drop {stale} from the exception"


def _private_attributes():
    """``(stored, read)``: private ``self._name`` stores and attribute reads.

    ``stored`` maps each ``_name`` assigned through ``self`` anywhere in
    ``src/repro`` to its ``path:line`` sites; ``read`` holds every
    attribute name loaded from any object there, plus the string names
    passed to ``getattr``.  Like the top-level check this goes by name:
    a read of ``other._name`` counts for every class that stores it.
    """
    stored, read = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (
                    isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                ):
                    site = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                    stored.setdefault(node.attr, []).append(site)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return stored, read


def test_every_private_attribute_is_read():
    stored, read = _private_attributes()
    unread = {name: sites for name, sites in stored.items() if name not in read}
    assert not unread, f"private attributes src/repro stores but never reads: {unread}"


def _unused_imports(path):
    """Names ``path`` imports and never reads, sorted.

    A read is a ``Name`` node, or a function parameter of the same name:
    a pytest fixture parameter uses the fixture it names.  ``__future__``
    imports are compiler directives, not names.
    """
    imported, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(
                (alias.asname or alias.name).partition(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return sorted(imported - used - {"*"})


def test_test_modules_use_every_import():
    unused = {}
    for path in sorted((REPO_ROOT / "tests").glob("*.py")):
        names = _unused_imports(path)
        if names:
            unused[path.name] = names
    assert not unused, f"test modules import names they never use: {unused}"
