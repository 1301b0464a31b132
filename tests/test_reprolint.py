"""reprolint tests: the tree-clean gate, per-rule fixtures, suppression,
the --json schema (golden file), and the 50-file lint-speed smoke."""

from __future__ import annotations

import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import (
    LINT_SCHEMA_VERSION,
    Finding,
    LintReport,
    LintRule,
    lint_file,
    lint_paths,
    lint_rules,
    lint_source,
    register_lint_rule,
)
from repro.api.registry import Registry
from repro.errors import ConfigurationError

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
GOLDEN = Path(__file__).resolve().parent / "data" / "reprolint_golden.json"

BUILTIN_RULES = (
    "RNG-001",
    "STORE-001",
    "BACKEND-001",
    "SHM-001",
    "ERR-001",
    "REG-001",
    "NET-001",
)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# The gate: the shipped tree lints clean
# ----------------------------------------------------------------------
class TestTreeClean:
    def test_src_repro_lints_clean(self):
        report = lint_paths([SRC_ROOT])
        assert report.files_checked > 90
        offending = [f.render() for f in report.findings if f.severity == "error"]
        assert report.ok, "\n".join(offending)
        assert report.exit_code() == 0

    def test_every_builtin_rule_registered_in_order(self):
        assert lint_rules.names() == BUILTIN_RULES

    def test_lint_rules_is_the_eighth_registry(self):
        assert isinstance(lint_rules, Registry)
        assert lint_rules.kind == "lint rule"
        # Unknown rule ids get the standard registry error with choices.
        with pytest.raises(ConfigurationError, match="available"):
            lint_rules.get("NOPE-999")

    def test_rules_carry_contract_provenance(self):
        for rule_id in BUILTIN_RULES:
            rule = lint_rules.get(rule_id)
            assert rule.contract, f"{rule_id} lacks contract provenance"
            assert rule.description and rule.title and rule.fix_hint


# ----------------------------------------------------------------------
# RNG-001
# ----------------------------------------------------------------------
class TestRng001:
    def test_flags_default_rng(self):
        src = "import numpy as np\n\nx = np.random.default_rng(3)\n"
        findings = lint_source(src, path="pkg/mod.py")
        assert rule_ids(findings) == ["RNG-001"]
        assert findings[0].line == 3

    def test_flags_distribution_calls_and_alias(self):
        src = "import numpy.random as nr\nv = nr.normal(0, 1)\n"
        assert rule_ids(lint_source(src, path="m.py")) == ["RNG-001"]

    def test_flags_stdlib_random_import(self):
        assert rule_ids(lint_source("import random\n", path="m.py")) == ["RNG-001"]
        assert rule_ids(
            lint_source("from random import shuffle\n", path="m.py")
        ) == ["RNG-001"]

    def test_annotations_are_allowed(self):
        src = textwrap.dedent(
            """
            import numpy as np

            def f(gen: np.random.Generator) -> np.random.Generator:
                return gen
            """
        )
        assert lint_source(src, path="m.py") == []

    def test_util_rng_is_exempt(self):
        src = "import numpy as np\ng = np.random.default_rng()\n"
        assert lint_source(src, path="src/repro/util/rng.py") == []

    def test_suppressed_on_line(self):
        src = (
            "import numpy as np\n"
            "g = np.random.default_rng(0)  # reprolint: disable=RNG-001\n"
        )
        assert lint_source(src, path="m.py") == []


# ----------------------------------------------------------------------
# STORE-001
# ----------------------------------------------------------------------
class TestStore001:
    def test_only_applies_to_store_stage_modules(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, path="runner/engine.py") == []
        assert rule_ids(lint_source(src, path="store/stages.py")) == ["STORE-001"]

    def test_flags_environ_and_getenv(self):
        src = textwrap.dedent(
            """
            import os

            def stage_key():
                return os.environ["HOME"] + os.getenv("USER", "")
            """
        )
        findings = lint_source(src, path="store/keys.py")
        assert rule_ids(findings) == ["STORE-001", "STORE-001"]

    def test_flags_mutable_global_read_but_not_constants(self):
        src = textwrap.dedent(
            """
            _cache = {}
            TABLE = {"a": 1}

            def stage(x):
                return _cache.get(x), TABLE["a"]
            """
        )
        findings = lint_source(src, path="store/stages.py")
        assert rule_ids(findings) == ["STORE-001"]
        assert "_cache" in findings[0].message

    def test_flags_global_statement(self):
        src = "def f():\n    global state\n    state = 1\n"
        assert rule_ids(lint_source(src, path="store/stages.py")) == ["STORE-001"]

    def test_suppressed_file_wide(self):
        src = (
            "# reprolint: disable-file=STORE-001\n"
            "import time\n\ndef f():\n    return time.time()\n"
        )
        assert lint_source(src, path="store/stages.py") == []


# ----------------------------------------------------------------------
# BACKEND-001
# ----------------------------------------------------------------------
class TestBackend001:
    def test_flags_outer_power_and_dense_access(self):
        src = textwrap.dedent(
            """
            import numpy as np

            def bad(kernel, a, b):
                m = np.outer(a, b)
                p = np.power(a, 2.0)
                return m, p, kernel._dense
            """
        )
        findings = lint_source(src, path="conflict/graph.py")
        assert rule_ids(findings) == ["BACKEND-001"] * 3

    def test_backend_package_and_kernels_exempt(self):
        src = "import numpy as np\nM = np.outer([1.0], [2.0])\n"
        assert lint_source(src, path="src/repro/backend/dense.py") == []
        assert lint_source(src, path="src/repro/sinr/kernels.py") == []

    def test_operator_pow_is_fine(self):
        src = "import numpy as np\nv = 2.0 ** np.arange(4)\n"
        assert lint_source(src, path="geometry/generators.py") == []


# ----------------------------------------------------------------------
# SHM-001
# ----------------------------------------------------------------------
class TestShm001:
    def test_flags_unreleased_segment(self):
        src = textwrap.dedent(
            """
            from multiprocessing.shared_memory import SharedMemory

            def leak():
                seg = SharedMemory(create=True, size=64)
                return seg.name
            """
        )
        findings = lint_source(src, path="jobs/foo.py")
        assert rule_ids(findings) == ["SHM-001"]
        assert "'seg'" in findings[0].message

    def test_close_in_finally_is_ok(self):
        src = textwrap.dedent(
            """
            from multiprocessing.shared_memory import SharedMemory

            def ok():
                seg = SharedMemory(create=True, size=64)
                try:
                    return bytes(seg.buf[:4])
                finally:
                    seg.close()
                    seg.unlink()
            """
        )
        assert lint_source(src, path="jobs/foo.py") == []

    def test_context_manager_is_ok(self):
        src = textwrap.dedent(
            """
            def ok(ShmArtifactPool):
                with ShmArtifactPool() as pool:
                    return pool.manifest()
            """
        )
        assert lint_source(src, path="jobs/foo.py") == []

    def test_ownership_transfer_is_ok(self):
        src = textwrap.dedent(
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(self):
                seg = SharedMemory(create=True, size=8)
                self._segments.append(seg)

            def make():
                return SharedMemory(create=True, size=8)
            """
        )
        assert lint_source(src, path="jobs/foo.py") == []

    def test_bare_expression_creation_flagged(self):
        src = textwrap.dedent(
            """
            from multiprocessing.shared_memory import SharedMemory

            def fire_and_forget():
                SharedMemory(create=True, size=8)
            """
        )
        assert rule_ids(lint_source(src, path="jobs/foo.py")) == ["SHM-001"]


# ----------------------------------------------------------------------
# ERR-001
# ----------------------------------------------------------------------
class TestErr001:
    @pytest.mark.parametrize("exc", ["ValueError", "RuntimeError", "KeyError", "Exception"])
    def test_flags_banned_builtins(self, exc):
        findings = lint_source(f"raise {exc}('boom')\n", path="m.py")
        assert rule_ids(findings) == ["ERR-001"]

    def test_type_and_not_implemented_allowed(self):
        src = "def f():\n    raise TypeError('bad arg')\n\ndef g():\n    raise NotImplementedError\n"
        assert lint_source(src, path="m.py") == []

    def test_reraise_and_custom_errors_allowed(self):
        src = textwrap.dedent(
            """
            from repro.errors import ConfigurationError

            def f():
                try:
                    pass
                except Exception:
                    raise
                raise ConfigurationError("bad")
            """
        )
        assert lint_source(src, path="m.py") == []

    def test_unknown_message_must_list_choices(self):
        bad = (
            "from repro.errors import ConfigurationError\n"
            "def f(name):\n"
            "    raise ConfigurationError(f'unknown widget {name!r}')\n"
        )
        assert rule_ids(lint_source(bad, path="m.py")) == ["ERR-001"]
        good = (
            "from repro.errors import ConfigurationError\n"
            "def f(name, names):\n"
            "    raise ConfigurationError(f'unknown widget {name!r}; available: {names}')\n"
        )
        assert lint_source(good, path="m.py") == []


# ----------------------------------------------------------------------
# REG-001
# ----------------------------------------------------------------------
class TestReg001:
    def test_flags_undocumented_decorator_registration(self):
        src = textwrap.dedent(
            """
            from repro.api.registry import Registry

            widgets = Registry("widget")

            @widgets.register("gear")
            def make_gear():
                return "gear"
            """
        )
        findings = lint_source(src, path="m.py")
        assert rule_ids(findings) == ["REG-001"]
        assert "make_gear" in findings[0].message

    def test_docstring_or_description_satisfies(self):
        src = textwrap.dedent(
            '''
            from repro.api.registry import Registry

            widgets = Registry("widget")

            @widgets.register("gear")
            def make_gear():
                """Builds the gear widget."""
                return "gear"

            @register_widget("cog", description="a documented cog")
            def make_cog():
                return "cog"
            '''
        )
        assert lint_source(src, path="m.py") == []

    def test_flags_lambda_component(self):
        src = "widgets.register('gear', lambda: 'gear')\n"
        assert rule_ids(lint_source(src, path="m.py")) == ["REG-001"]

    def test_direct_registration_with_spec_description(self):
        src = textwrap.dedent(
            """
            widgets.register("gear", WidgetSpec("gear", build, description="spins"))
            """
        )
        assert lint_source(src, path="m.py") == []

    def test_same_module_undocumented_component_flagged(self):
        src = textwrap.dedent(
            """
            def build_gear():
                return "gear"

            widgets.register("gear", build_gear)
            """
        )
        assert rule_ids(lint_source(src, path="m.py")) == ["REG-001"]


# ----------------------------------------------------------------------
# NET-001
# ----------------------------------------------------------------------
class TestNet001:
    def test_flags_socket_imports(self):
        assert rule_ids(lint_source("import socket\n", path="m.py")) == ["NET-001"]
        assert rule_ids(
            lint_source("from socket import create_connection\n", path="m.py")
        ) == ["NET-001"]

    def test_flags_raw_constructors_via_alias(self):
        src = (
            "import socket as sock  # reprolint: disable=NET-001\n"
            "s = sock.socket()\n"
            "c = sock.create_connection(('h', 1))\n"
        )
        assert rule_ids(lint_source(src, path="jobs/service.py")) == [
            "NET-001",
            "NET-001",
        ]

    def test_flags_asyncio_open_connection(self):
        src = (
            "import asyncio\n"
            "async def dial():\n"
            "    return await asyncio.open_connection('h', 80)\n"
        )
        assert rule_ids(lint_source(src, path="m.py")) == ["NET-001"]

    def test_asyncio_start_server_is_allowed(self):
        # A listener is deliberately outside the ban: it accepts
        # connections, it does not originate raw ones.
        src = (
            "import asyncio\n"
            "async def listen(handler):\n"
            "    return await asyncio.start_server(handler, 'h', 80)\n"
        )
        assert lint_source(src, path="m.py") == []

    def test_cluster_transport_is_exempt(self):
        src = "import socket\ns = socket.socket()\n"
        assert lint_source(src, path="src/repro/cluster/transport.py") == []


# ----------------------------------------------------------------------
# Suppression mechanism
# ----------------------------------------------------------------------
class TestSuppression:
    SRC = "import numpy as np\ng = np.random.default_rng(0){comment}\nraise ValueError('x')\n"

    def test_line_suppression_is_line_scoped(self):
        findings = lint_source(
            self.SRC.format(comment="  # reprolint: disable=RNG-001"), path="m.py"
        )
        # The raise on the next line is still reported.
        assert rule_ids(findings) == ["ERR-001"]

    def test_line_suppression_multiple_rules(self):
        src = (
            "import numpy as np\n"
            "g = np.random.default_rng(0)  # reprolint: disable=RNG-001, ERR-001\n"
        )
        assert lint_source(src, path="m.py") == []

    def test_disable_all_on_line(self):
        findings = lint_source(
            self.SRC.format(comment="  # reprolint: disable=all"), path="m.py"
        )
        assert rule_ids(findings) == ["ERR-001"]

    def test_file_wide_suppression(self):
        src = "# reprolint: disable-file=RNG-001,ERR-001\n" + self.SRC.format(comment="")
        assert lint_source(src, path="m.py") == []

    def test_file_wide_all(self):
        src = "# reprolint: disable-file=all\n" + self.SRC.format(comment="")
        assert lint_source(src, path="m.py") == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint_source(
            self.SRC.format(comment="  # reprolint: disable=SHM-001"), path="m.py"
        )
        assert rule_ids(findings) == ["RNG-001", "ERR-001"]

    def test_case_insensitive_rule_ids(self):
        src = (
            "import numpy as np\n"
            "g = np.random.default_rng(0)  # reprolint: disable=rng-001\n"
        )
        assert lint_source(src, path="m.py") == []


# ----------------------------------------------------------------------
# Framework: registration, selection, severities, errors
# ----------------------------------------------------------------------
class TestFramework:
    def test_register_custom_rule_and_select(self):
        @register_lint_rule(
            "TEST-900",
            title="no TODO",
            description="flags TODO markers (test rule)",
            severity="warning",
        )
        def _no_todo(ctx):
            """Flag modules whose source contains TODO."""
            for lineno, line in enumerate(ctx.lines, start=1):
                if "TODO" in line:
                    node = type("N", (), {"lineno": lineno, "col_offset": 0})()
                    yield node, "TODO marker"

        try:
            findings = lint_source("x = 1  # TODO later\n", path="m.py", select=["TEST-900"])
            assert rule_ids(findings) == ["TEST-900"]
            assert findings[0].severity == "warning"
            # Warnings do not fail the gate.
            report = LintReport(findings=tuple(findings), files_checked=1)
            assert report.ok and report.exit_code() == 0
        finally:
            lint_rules.unregister("TEST-900")

    def test_invalid_severity_rejected(self):
        with pytest.raises(ConfigurationError, match="valid severities"):
            register_lint_rule("TEST-901", title="t", description="d", severity="fatal")

    def test_select_unknown_rule_lists_choices(self):
        with pytest.raises(ConfigurationError, match="available"):
            lint_source("x = 1\n", select=["NOPE-000"])

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert rule_ids(findings) == ["SYNTAX"]
        assert findings[0].severity == "error"

    def test_missing_target_raises_with_paths(self, tmp_path):
        with pytest.raises(ConfigurationError, match="do not exist"):
            lint_paths([tmp_path / "nope"])

    def test_non_python_target_rejected(self, tmp_path):
        target = tmp_path / "data.json"
        target.write_text("{}")
        with pytest.raises(ConfigurationError, match="neither a directory"):
            lint_paths([target])

    def test_finding_render_and_location(self):
        finding = Finding(
            path="a/b.py", line=3, col=4, rule_id="RNG-001",
            message="boom", fix_hint="use as_generator",
        )
        assert finding.location == "a/b.py:3:4"
        assert "fix: use as_generator" in finding.render()

    def test_lint_file_roundtrip(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("raise ValueError('x')\n")
        findings = lint_file(target)
        assert rule_ids(findings) == ["ERR-001"]
        assert findings[0].path == target.as_posix()

    def test_rule_is_frozen_spec(self):
        rule = lint_rules.get("RNG-001")
        assert isinstance(rule, LintRule)
        with pytest.raises(AttributeError):
            rule.severity = "warning"


# ----------------------------------------------------------------------
# --json schema (golden) and CLI integration
# ----------------------------------------------------------------------
FIXTURE_SOURCE = (
    "import numpy as np\n"
    "\n"
    "g = np.random.default_rng(7)\n"
    "raise ValueError('boom')\n"
    "import socket\n"
    "s = socket.create_connection(('host', 1))\n"
)


def fixture_report() -> LintReport:
    findings = lint_source(FIXTURE_SOURCE, path="fixture.py")
    return LintReport(findings=tuple(findings), files_checked=1)


class TestJsonSchema:
    def test_schema_matches_golden_file(self):
        got = fixture_report().to_json_dict()
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert got == want

    def test_schema_core_fields(self):
        data = fixture_report().to_json_dict()
        assert data["schema_version"] == LINT_SCHEMA_VERSION
        assert data["files_checked"] == 1
        assert data["errors"] == 4 and data["warnings"] == 0
        for row in data["findings"]:
            assert set(row) == {
                "path", "line", "col", "rule", "severity", "message", "fix_hint",
            }

    def test_full_report_includes_rule_catalog(self):
        report = lint_paths([SRC_ROOT / "util"])
        data = report.to_json_dict()
        assert [r["rule"] for r in data["rules"]] == list(BUILTIN_RULES)
        for row in data["rules"]:
            assert set(row) == {"rule", "title", "description", "contract", "severity"}


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_clean_tree_exits_zero(self, capsys):
        code, out = self.run_cli(["lint", str(SRC_ROOT / "util")], capsys)
        assert code == 0
        assert "0 errors" in out

    def test_violations_exit_two_with_locations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(FIXTURE_SOURCE)
        code, out = self.run_cli(["lint", str(bad)], capsys)
        assert code == 2
        assert f"{bad.as_posix()}:3:" in out and "RNG-001" in out
        assert f"{bad.as_posix()}:4:" in out and "ERR-001" in out
        assert f"{bad.as_posix()}:5:" in out and "NET-001" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(FIXTURE_SOURCE)
        code, out = self.run_cli(["lint", "--json", str(bad)], capsys)
        assert code == 2
        data = json.loads(out)
        assert data["schema_version"] == LINT_SCHEMA_VERSION
        assert {row["rule"] for row in data["findings"]} == {
            "RNG-001",
            "ERR-001",
            "NET-001",
        }

    def test_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(FIXTURE_SOURCE)
        code, out = self.run_cli(
            ["lint", "--select", "ERR-001", str(bad)], capsys
        )
        assert code == 2
        assert "ERR-001" in out and "RNG-001" not in out

    def test_list_rules(self, capsys):
        code, out = self.run_cli(["lint", "--list-rules"], capsys)
        assert code == 0
        for rule_id in BUILTIN_RULES:
            assert rule_id in out

    def test_unknown_select_is_exit_two_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        from repro.cli import main

        code = main(["lint", "--select", "NOPE-1", str(bad)])
        assert code == 2


# ----------------------------------------------------------------------
# Strict-typing gate (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
class TestTypingGate:
    STRICT_PACKAGES = ("repro.api", "repro.store", "repro.backend", "repro.util")

    def test_py_typed_marker_shipped(self):
        assert (SRC_ROOT / "py.typed").exists()

    def test_setup_cfg_ships_marker_and_strictness_table(self):
        cfg = (SRC_ROOT.parent.parent / "setup.cfg").read_text(encoding="utf-8")
        assert "py.typed" in cfg
        for package in self.STRICT_PACKAGES:
            assert f"[mypy-{package}.*]" in cfg

    def test_mypy_strict_packages(self):
        pytest.importorskip("mypy")
        from mypy import api as mypy_api

        repo_root = SRC_ROOT.parent.parent
        argv = ["--config-file", str(repo_root / "setup.cfg")]
        for package in self.STRICT_PACKAGES:
            argv += ["-p", package]
        stdout, stderr, code = mypy_api.run(argv)
        assert code == 0, f"mypy gate failed:\n{stdout}\n{stderr}"


# ----------------------------------------------------------------------
# Lint-speed smoke (pre-commit budget)
# ----------------------------------------------------------------------
class TestLintSmoke:
    def test_fifty_file_tree_under_two_seconds(self, tmp_path):
        clean = textwrap.dedent(
            """
            import numpy as np

            from repro.util.rng import as_generator


            def sample(rng=None):
                gen = as_generator(rng)
                return gen.integers(0, 10, size=8)


            def transform(values):
                return [v * 2 for v in values]
            """
        )
        dirty = clean + "\n\ng = np.random.default_rng(0)\nraise ValueError('x')\n"
        for index in range(50):
            body = dirty if index % 10 == 0 else clean
            (tmp_path / f"mod_{index:02d}.py").write_text(body)
        start = time.perf_counter()
        report = lint_paths([tmp_path])
        elapsed = time.perf_counter() - start
        assert report.files_checked == 50
        assert len(report.findings) == 10  # 5 dirty files x 2 findings
        assert elapsed < 2.0, f"linting 50 files took {elapsed:.2f}s"
