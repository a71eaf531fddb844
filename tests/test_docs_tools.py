"""Tests for the offline gates: the link checker, the docstring and import mirrors, the caller check."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_links():
    return _load("check_links")


@pytest.fixture(scope="module")
def check_docstrings():
    return _load("check_docstrings")


@pytest.fixture(scope="module")
def check_imports():
    return _load("check_imports")


@pytest.fixture(scope="module")
def check_callers():
    return _load("check_callers")


class TestCheckLinks:
    def test_valid_relative_links_pass(self, check_links, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "guide.md").write_text("see [readme](../README.md)\n")
        (tmp_path / "README.md").write_text("see [guide](docs/guide.md) and [web](https://x.example)\n")
        assert check_links.check_file(tmp_path / "README.md", tmp_path) == []
        assert check_links.check_file(tmp_path / "docs" / "guide.md", tmp_path) == []

    def test_broken_link_reported(self, check_links, tmp_path):
        md = tmp_path / "README.md"
        md.write_text("see [missing](docs/nope.md)\n")
        broken = check_links.check_file(md, tmp_path)
        assert [target for target, _ in broken] == ["docs/nope.md"]

    def test_anchor_suffix_stripped_before_check(self, check_links, tmp_path):
        (tmp_path / "other.md").write_text("# Section\n")
        md = tmp_path / "README.md"
        md.write_text("[ok](other.md#section) and [pure anchor](#local)\n")
        assert check_links.check_file(md, tmp_path) == []

    def test_link_escaping_the_repo_is_broken(self, check_links, tmp_path):
        md = tmp_path / "README.md"
        md.write_text("[out](../../etc/passwd)\n")
        broken = check_links.check_file(md, tmp_path)
        assert broken and broken[0][1] == "escapes the repository"

    def test_code_blocks_are_ignored(self, check_links, tmp_path):
        md = tmp_path / "README.md"
        md.write_text("```\n[not a link](missing.md)\n```\n")
        assert check_links.check_file(md, tmp_path) == []

    def test_repo_documentation_has_no_broken_links(self, check_links, capsys):
        # The real gate CI runs: README.md plus docs/*.md must all resolve.
        assert check_links.main([]) == 0
        assert "OK" in capsys.readouterr().out


class TestCheckDocstrings:
    def test_documented_packages_pass(self, check_docstrings, capsys):
        assert check_docstrings.main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_docstrings_flagged(self, check_docstrings, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module docstring."""\n\n\nclass Thing:\n    def method(self):\n        return 1\n'
        )
        problems = []
        check_docstrings.check_file(bad, problems)
        assert any("Thing" in p and "missing docstring" in p for p in problems)
        assert any("method" in p and "missing docstring" in p for p in problems)

    def test_private_names_exempt(self, check_docstrings, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text('"""Module docstring."""\n\n\ndef _helper():\n    return 1\n')
        problems = []
        check_docstrings.check_file(ok, problems)
        assert problems == []

    def test_summary_format_rules(self, check_docstrings, tmp_path):
        bad = tmp_path / "fmt.py"
        bad.write_text(
            '"""Module docstring."""\n\n\ndef f():\n    """no capital, no period"""\n    return 1\n'
        )
        problems = []
        check_docstrings.check_file(bad, problems)
        assert any("capitalised" in p for p in problems)
        assert any("period" in p for p in problems)


class TestCheckImports:
    def _unused(self, check_imports, tmp_path, source, name="mod.py"):
        path = tmp_path / name
        path.write_text(source)
        return check_imports.check_file(path)

    def test_used_import_passes(self, check_imports, tmp_path):
        assert self._unused(check_imports, tmp_path, "import os\n\nprint(os.sep)\n") == []

    def test_unused_import_flagged(self, check_imports, tmp_path):
        problems = self._unused(
            check_imports, tmp_path, "import os\nfrom typing import List, Tuple\n\nx: List = []\n"
        )
        assert len(problems) == 2
        assert "'os'" in problems[0] and "F401" in problems[0]
        assert "'Tuple'" in problems[1]

    def test_type_checking_import_in_string_annotation_is_used(self, check_imports, tmp_path):
        source = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING, Optional\n"
            "if TYPE_CHECKING:\n"
            "    from repro.hardware.cluster import Cluster, GPU\n\n"
            'def price(cluster: "Cluster", spare: Optional["Cluster"] = None) -> float:\n'
            "    return 0.0\n"
        )
        problems = self._unused(check_imports, tmp_path, source)
        assert len(problems) == 1 and "'GPU'" in problems[0]

    def test_all_reexport_and_package_init_are_used(self, check_imports, tmp_path):
        source = 'from os import sep\nfrom os import linesep\n\n__all__ = ["sep"]\n'
        problems = self._unused(check_imports, tmp_path, source)
        assert len(problems) == 1 and "'linesep'" in problems[0]
        assert self._unused(check_imports, tmp_path, source, name="__init__.py") == []

    def test_repository_has_no_unused_imports(self, check_imports, capsys):
        # The gate CI runs: no module-level import of the repository is unused.
        assert check_imports.main([]) == 0
        assert "OK" in capsys.readouterr().out


class TestCheckCallers:
    """``tools/check_callers.py`` on a throwaway tree: ``src/`` plus its callers."""

    def _flagged(self, check_callers, tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return check_callers.unreferenced(tmp_path)

    def test_used_name_passes(self, check_callers, tmp_path):
        flagged = self._flagged(check_callers, tmp_path, {
            "src/pkg/mod.py": "def used():\n    pass\n",
            "examples/run.py": "from pkg import mod\n\nmod.used()\n",
        })
        assert flagged == []

    def test_unused_name_flagged_even_when_tests_call_it(self, check_callers, tmp_path):
        flagged = self._flagged(check_callers, tmp_path, {
            "src/pkg/mod.py": "class Box:\n    def only_tested(self):\n        pass\n",
            # A local variable of the same name is no call of the method.
            "benchmarks/bench.py": "from pkg.mod import Box\n\nonly_tested = Box()\nprint(only_tested)\n",
            "tests/test_mod.py": "from pkg.mod import Box\n\nBox().only_tested()\n",
        })
        assert len(flagged) == 1 and "'Box.only_tested'" in flagged[0]

    def test_allowlisted_name_passes(self, check_callers, tmp_path):
        flagged = self._flagged(check_callers, tmp_path, {
            "src/repro/model/flops.py": "def prefill_flops():\n    pass\n",
        })
        assert flagged == []
        assert all(reason.strip() for reason in check_callers.ALLOWLIST.values())

    def test_all_only_reexport_is_flagged(self, check_callers, tmp_path):
        flagged = self._flagged(check_callers, tmp_path, {
            "src/pkg/mod.py": "def exported():\n    pass\n",
            "src/pkg/__init__.py": 'from pkg.mod import exported\n\n__all__ = ["exported"]\n',
        })
        assert len(flagged) == 1 and "'exported'" in flagged[0]

    def test_dotted_string_target_counts_as_a_use(self, check_callers, tmp_path):
        flagged = self._flagged(check_callers, tmp_path, {
            "src/pkg/mod.py": "class Engine:\n    def step(self):\n        pass\n",
            "perfbench/tracing.py": 'TARGETS = (("pkg.mod", "Engine.step", "engine.step"),)\n',
        })
        assert flagged == []

    def test_repository_public_names_all_have_callers(self, check_callers, capsys):
        # The gate CI runs: every public name in src/ has a caller outside tests/.
        assert check_callers.main([]) == 0
        assert "OK" in capsys.readouterr().out
