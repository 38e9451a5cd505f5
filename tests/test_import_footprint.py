"""What importing the simulator costs, and what the package depends on.

networkx is ~14 MB of resident memory that only the two conflict-graph
builders use (Fig. 9(b)'s oracle and the Theorem 1 game), so they import
it on call.  A fresh interpreter that imports the LTE, shard, metro and
802.11af layers must not load it; building a graph must.

Every ``[project].dependencies`` entry must also be imported by some
``src/repro`` module, so the install list names no package that no code
uses.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
SRC = REPO_ROOT / "src"

_PLAIN_IMPORTS = """
import sys

import repro.core
import repro.experiments.large_scale
import repro.lte.network
import repro.sim.shard
import repro.wifi.network

assert "networkx" not in sys.modules, "networkx loaded by a plain import"
"""

_BUILD_GRAPH = {
    "theorem1-game": """
import numpy as np

from repro.core.interference.theory import random_conflict_graph

assert random_conflict_graph(8, 3.0, np.random.default_rng(0)).number_of_nodes() == 8
""",
    "isolation-oracle": """
from repro.baselines.oracle import IsolationOracle
from repro.experiments.common import build_scenario

net = build_scenario(seed=1, n_aps=3, clients_per_ap=2).lte_net("oracle")
assert IsolationOracle(net, 13).is_conflict_free()
""",
}


@pytest.mark.parametrize("builder", sorted(_BUILD_GRAPH))
def test_networkx_loads_only_with_a_graph(builder):
    probe = _PLAIN_IMPORTS + _BUILD_GRAPH[builder] + (
        '\nassert "networkx" in sys.modules, "no graph was built"\n'
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _declared_dependencies():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.S | re.M)
    names = re.findall(r"\"([^\"]+)\"", listed.group(1))
    return [re.split(r"[<>=!~;\[ ]", name, 1)[0] for name in names]


def _imported_top_levels():
    found = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                found.add(node.module.split(".")[0])
    return found


def test_every_dependency_is_imported():
    declared = _declared_dependencies()
    assert "numpy" in declared
    unused = set(declared) - _imported_top_levels()
    assert not unused, f"declared but never imported under src/repro: {sorted(unused)}"
