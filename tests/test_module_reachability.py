"""Every module under ``src/repro`` is reached from something that runs.

The roots are the CLI and every script under ``benchmarks/``,
``examples/`` and ``perfbench/``; tests are not roots, so a module only its
own tests import counts as dead.  The walk reads source with ``ast`` and
executes no import.  Package ``__init__`` files are not followed (a
re-export is not a use): ``from pkg import Name`` resolves to the
submodule ``pkg/__init__.py`` imports ``Name`` from.
"""

import ast
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
