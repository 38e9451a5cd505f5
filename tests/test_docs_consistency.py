"""Documentation consistency: guard DESIGN.md and README against rot."""

import ast
import fnmatch
import importlib
import importlib.util
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _read(name: str) -> str:
    return (REPO_ROOT / name).read_text()


def _doc_sources():
    """DESIGN.md, the CI workflow and every ``docs/*.md``."""
    return ["DESIGN.md", ".github/workflows/ci.yml"] + sorted(
        str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
    )


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestDesignDoc:
    def test_every_referenced_module_exists(self):
        refs = {
            (doc, dotted)
            for doc in _doc_sources() + ["README.md", "EXPERIMENTS.md"]
            for dotted in re.findall(r"`(repro(?:\.\w+)+)`", _read(doc))
        }
        assert refs, "the docs should reference repro modules"
        stale = sorted(ref for ref in refs if not _resolves(ref[1]))
        assert not stale, f"docs name code that does not exist: {stale}"

    def test_every_referenced_benchmark_exists(self):
        text = _read("DESIGN.md")
        benches = set(re.findall(r"`(benchmarks/\w+\.py)`", text))
        assert benches
        for path in benches:
            assert (REPO_ROOT / path).is_file(), f"{path} missing"

    def test_every_referenced_test_file_exists(self):
        text = _read("DESIGN.md")
        tests = set(re.findall(r"`(tests/\w+\.py)`", text))
        for path in tests:
            assert (REPO_ROOT / path).is_file(), f"{path} missing"


def _class_members():
    """Top-level ``src/repro`` class name -> the members ``ast`` finds.

    A member is a method, a class-level assignment or dataclass field, a
    nested class or a ``self.<member> =`` store in any method.
    """
    members = {}
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            found = members.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    found.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    found.update(t.id for t in item.targets if isinstance(t, ast.Name))
            for store in ast.walk(node):
                if (
                    isinstance(store, ast.Attribute)
                    and isinstance(store.ctx, ast.Store)
                    and isinstance(store.value, ast.Name)
                    and store.value.id == "self"
                ):
                    found.add(store.attr)
    return members


class TestClassMemberMentions:
    """`` `Class.member` `` and `` `Class.member()` `` in the docs must name
    a member of that top-level class."""

    MENTION = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\(\))?`")

    @pytest.fixture(scope="class")
    def members(self):
        return _class_members()

    def mentions(self, members):
        return {
            (doc, cls, member)
            for doc in _doc_sources() + ["README.md", "EXPERIMENTS.md"]
            for cls, member in self.MENTION.findall(_read(doc))
            if cls in members
        }

    def test_every_named_member_exists(self, members):
        mentions = self.mentions(members)
        assert len(mentions) >= 30, "the member scan found too little"
        stale = sorted(
            f"{doc}: {cls}.{member}"
            for doc, cls, member in mentions
            if member not in members[cls]
        )
        assert not stale, f"docs name class members that do not exist: {stale}"

    def test_each_member_kind_resolves(self, members):
        assert {"stop_radio", "n_attached"} <= members["EnodeB"]  # methods
        assert "cell_id" in members["EnodeB"]  # dataclass field
        assert "_average_bps" in members["ProportionalFairScheduler"]  # self store
        assert "set_allowed_subchannels" not in members["EnodeB"]


class TestReadme:
    def test_quickstart_snippet_runs(self):
        text = _read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert blocks, "README should contain a python quickstart"
        # Shrink the snippet so the doc test stays fast.
        snippet = blocks[0].replace("n_aps=6", "n_aps=2").replace(
            "net.run(10", "net.run(2"
        )
        namespace = {}
        exec(compile(snippet, "README-quickstart", "exec"), namespace)
        assert namespace["results"], "quickstart must produce results"

    def test_examples_listed_exist(self):
        text = _read("README.md")
        examples = set(re.findall(r"`(examples/\w+\.py)`", text))
        assert len(examples) >= 3
        for path in examples:
            assert (REPO_ROOT / path).is_file(), f"{path} missing"


class TestExperimentsDoc:
    def test_every_referenced_benchmark_exists(self):
        text = _read("EXPERIMENTS.md")
        benches = set(re.findall(r"`(benchmarks/\w+\.py)`", text))
        assert len(benches) >= 12, "every figure needs a bench"
        for path in benches:
            assert (REPO_ROOT / path).is_file(), f"{path} missing"


class TestMakeTargets:
    #: ``make <target>`` where a command can stand: an inline code span, a
    #: CI step name in parentheses, a ``run:`` line or a code-block line.
    MAKE_CALL = re.compile(r"(?:^[ \t]*|[`(]|run: )make ([a-z][\w-]*)", re.M)

    def test_every_named_make_target_exists(self):
        defined = set(
            re.findall(r"^([\w-]+):(?!=)", _read("Makefile"), re.M)
        )
        named = {
            (source, target)
            for source in _doc_sources()
            for target in self.MAKE_CALL.findall(_read(source))
        }
        assert len(named) >= 10, "the target scan found too little"
        missing = sorted(f"{s}: make {t}" for s, t in named if t not in defined)
        assert not missing, f"targets missing from the Makefile: {missing}"


class TestBenchEpochMentions:
    """``bench_epoch.py`` flags and ``BENCH_*.json`` files named in the
    docs, the Makefile, CI and the verify recipe must still exist."""

    SOURCES = ["Makefile", ".claude/skills/verify/SKILL.md"]
    #: ``bench_epoch.py`` and the rest of its command line: tokens up to
    #: the end of the line, a backtick or a ``#`` comment.
    COMMAND = re.compile(r"bench_epoch\.py((?:[ \t]+[^\s`#][^\s`]*)*)")
    FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
    ARTIFACT = re.compile(r"\bBENCH_\w+\.json")

    @pytest.fixture(scope="class")
    def accepted(self):
        """Every option the script's own parser accepts."""
        spec = importlib.util.spec_from_file_location(
            "bench_epoch", REPO_ROOT / "benchmarks" / "bench_epoch.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return set(self.FLAG.findall(module.build_parser().format_help()))

    def stale(self, text, accepted):
        """Unknown flags and BENCH files neither present nor ignored."""
        ignored = _read(".gitignore").split()
        text = text.replace("\\\n", " ")  # join continued shell lines
        flags = {
            flag
            for tail in self.COMMAND.findall(text)
            for flag in self.FLAG.findall(tail)
        }
        artifacts = {
            name
            for name in self.ARTIFACT.findall(text)
            if not (REPO_ROOT / name).is_file()
            and not any(fnmatch.fnmatch(name, p) for p in ignored)
        }
        return sorted(flags - accepted) + sorted(artifacts)

    def test_named_flags_and_artifacts_exist(self, accepted):
        assert {"--smoke", "--gain-fill"} <= accepted
        stale = {
            source: found
            for source in _doc_sources() + self.SOURCES
            for found in [self.stale(_read(source), accepted)]
            if found
        }
        assert not stale, f"stale bench_epoch.py mentions: {stale}"

    def test_a_retired_mode_or_artifact_is_caught(self, accepted):
        leftover = (
            "bench-city:\n"
            "\t$(PYTHON) benchmarks/bench_epoch.py --smoke \\\n"
            "\t\t--activity-sweep  # writes BENCH_city.json\n"
        )
        assert self.stale(leftover, accepted) == [
            "--activity-sweep",
            "BENCH_city.json",
        ]


class TestCliFlagMentions:
    """Every ``repro.cli <command> ... --flag`` line in the docs, the
    Makefile, CI and the verify recipe names only flags that command's
    parser in :func:`repro.cli.build_parser` accepts."""

    SOURCES = [
        "README.md",
        "EXPERIMENTS.md",
        "Makefile",
        ".claude/skills/verify/SKILL.md",
    ]
    #: ``repro.cli``, the subcommand and the rest of its command line:
    #: tokens up to the end of the line, a backtick or a ``#`` comment.
    COMMAND = re.compile(
        r"repro\.cli[ \t]+([a-z][\w-]*)((?:[ \t]+[^\s`#][^\s`]*)*)"
    )
    FLAG = TestBenchEpochMentions.FLAG

    @pytest.fixture(scope="class")
    def accepted(self):
        """Subcommand -> every option string its parser accepts."""
        import argparse

        from repro.cli import build_parser

        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            command: {
                flag
                for action in parser._actions
                for flag in action.option_strings
            }
            for command, parser in subparsers.choices.items()
        }

    def stale(self, text, accepted):
        """``command --flag`` pairs (or bare unknown commands) the CLI
        does not accept."""
        text = text.replace("\\\n", " ")  # join continued shell lines
        found = set()
        for command, tail in self.COMMAND.findall(text):
            if command not in accepted:
                found.add(command)
                continue
            for flag in self.FLAG.findall(tail):
                if flag not in accepted[command]:
                    found.add(f"{command} {flag}")
        return sorted(found)

    def test_named_flags_exist(self, accepted):
        assert {"--shards", "--chaos", "--shard-retry-budget"} <= accepted["fig9a"]
        scanned = [
            command
            for source in _doc_sources() + self.SOURCES
            for command, _ in self.COMMAND.findall(
                _read(source).replace("\\\n", " ")
            )
        ]
        assert len(scanned) >= 10, "the command scan found too little"
        stale = {
            source: found
            for source in _doc_sources() + self.SOURCES
            for found in [self.stale(_read(source), accepted)]
            if found
        }
        assert not stale, f"stale repro.cli mentions: {stale}"

    def test_a_retired_flag_or_command_is_caught(self, accepted):
        leftover = (
            "```bash\n"
            "python -m repro.cli fig9a --shards 4 --backend scalar \\\n"
            "    --chaos 'kill@3:1'  # retired flag on a continuation\n"
            "python -m repro.cli fig10 --seeds 1\n"
            "```\n"
        )
        assert self.stale(leftover, accepted) == ["fig10", "fig9a --backend"]
