"""The ``replint`` static pass: rules, scoping, suppressions, CLI."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.lint import (
    ALL_RULES,
    LintEngine,
    RULES_BY_ID,
    TIMING_CRITICAL_PACKAGES,
    findings_payload,
    format_text,
    lint_paths,
    rule_ids,
)
from repro.cli import main

#: A module path inside a timing-critical package.
SIM_PATH = "src/repro/sim/fake_module.py"
#: A module path outside every timing-critical package.
TABLE_PATH = "src/repro/analysis/fake_tables.py"

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def rules_in(source: str, path: str = SIM_PATH) -> list:
    """Rule ids replint reports for ``source`` pretending it lives at ``path``."""
    return [f.rule for f in LintEngine().lint_source(source, path)]


# -- individual rules ---------------------------------------------------------


class TestWallClock:
    def test_direct_call_flagged(self):
        src = "import time\nstart = time.monotonic()\n"
        assert rules_in(src) == ["wall-clock"]

    def test_aliased_import_resolved(self):
        src = "from time import perf_counter as tick\nx = tick()\n"
        assert rules_in(src) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rules_in(src) == ["wall-clock"]

    def test_not_flagged_outside_timing_critical_packages(self):
        src = "import time\nstart = time.monotonic()\n"
        assert rules_in(src, TABLE_PATH) == []

    def test_cycle_model_arithmetic_is_clean(self):
        src = "cycles = busy + stall\n"
        assert rules_in(src) == []


class TestUnseededRandom:
    def test_global_rng_flagged(self):
        src = "import random\nx = random.randint(0, 7)\n"
        assert rules_in(src) == ["unseeded-random"]

    def test_global_seed_flagged(self):
        src = "import random\nrandom.seed(13)\n"
        assert rules_in(src) == ["unseeded-random"]

    def test_seeded_instance_is_clean(self):
        src = "import random\nrng = random.Random(7)\nx = rng.randint(0, 7)\n"
        assert rules_in(src) == []

    def test_numpy_legacy_global_flagged(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert rules_in(src) == ["unseeded-random"]

    def test_numpy_default_rng_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rules_in(src) == []


class TestUnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rules_in(src) == ["unordered-iteration"]

    def test_for_over_set_call_flagged(self):
        src = "for line in set(lines):\n    touch(line)\n"
        assert rules_in(src) == ["unordered-iteration"]

    def test_comprehension_over_set_flagged(self):
        src = "out = [f(x) for x in set(lines)]\n"
        assert rules_in(src) == ["unordered-iteration"]

    def test_order_sensitive_consumer_flagged(self):
        src = "stream = list(a.union(b))\n"
        assert rules_in(src) == ["unordered-iteration"]

    def test_sorted_set_is_clean(self):
        src = "for line in sorted(set(lines)):\n    touch(line)\n"
        assert rules_in(src) == []

    def test_not_flagged_outside_timing_critical_packages(self):
        src = "for x in {1, 2}:\n    print(x)\n"
        assert rules_in(src, TABLE_PATH) == []


class TestFloatEquality:
    def test_nonzero_literal_flagged_everywhere(self):
        src = "ok = speedup == 1.5\n"
        assert rules_in(src) == ["float-equality"]
        assert rules_in(src, TABLE_PATH) == ["float-equality"]

    def test_negative_literal_flagged(self):
        src = "bad = delta != -2.5\n"
        assert rules_in(src) == ["float-equality"]

    def test_zero_degenerate_guard_is_clean(self):
        src = "if area == 0.0:\n    return None\n"
        assert rules_in(src) == []

    def test_integer_comparison_is_clean(self):
        src = "done = cycles == 128\n"
        assert rules_in(src) == []


class TestBareAssert:
    def test_assert_flagged(self):
        src = "def f(n):\n    assert n > 0, 'bad'\n"
        assert rules_in(src) == ["bare-assert"]

    def test_raise_from_taxonomy_is_clean(self):
        src = (
            "from repro.errors import ConfigError\n"
            "def f(n):\n"
            "    if n <= 0:\n"
            "        raise ConfigError('bad')\n"
        )
        assert rules_in(src) == []


class TestConfigMutation:
    def test_attribute_assignment_flagged(self):
        src = "config.num_shader_cores = 8\n"
        assert rules_in(src) == ["config-mutation"]

    def test_augmented_assignment_flagged(self):
        src = "design.l1_size_kib *= 4\n"
        assert rules_in(src) == ["config-mutation"]

    def test_setattr_flagged(self):
        src = "object.__setattr__(config, 'decoupled', True)\n"
        assert rules_in(src) == ["config-mutation"]

    def test_dataclasses_replace_is_clean(self):
        src = (
            "import dataclasses\n"
            "bigger = dataclasses.replace(config, num_shader_cores=8)\n"
        )
        assert rules_in(src) == []


# -- suppressions -------------------------------------------------------------


class TestSuppressions:
    def test_justified_suppression_silences_the_rule(self):
        src = (
            "import time\n"
            "start = time.monotonic()  "
            "# replint: disable=wall-clock -- wall time for the manifest\n"
        )
        assert rules_in(src) == []

    def test_unjustified_suppression_is_itself_a_finding(self):
        src = (
            "import time\n"
            "start = time.monotonic()  # replint: disable=wall-clock\n"
        )
        assert sorted(rules_in(src)) == [
            "unjustified-suppression", "wall-clock",
        ]

    def test_disable_all(self):
        src = (
            "for x in {1, 2}:  # replint: disable=all -- test scaffolding\n"
            "    assert x\n"
        )
        findings = LintEngine().lint_source(src, SIM_PATH)
        assert [f.rule for f in findings] == ["bare-assert"]
        assert findings[0].line == 2

    def test_unused_suppression_is_a_finding(self):
        src = (
            "cycles = busy + stall  "
            "# replint: disable=wall-clock -- no longer needed\n"
        )
        findings = LintEngine().lint_source(src, SIM_PATH)
        assert [(f.rule, f.line) for f in findings] == [
            ("unused-suppression", 1)
        ]

    def test_unused_disable_all_is_a_finding(self):
        src = "x = 1  # replint: disable=all -- scaffolding\n"
        assert rules_in(src) == ["unused-suppression"]

    def test_unknown_rule_in_suppression_is_a_finding(self):
        src = (
            "import time\n"
            "t = time.monotonic()  "
            "# replint: disable=wallclock -- typo'd rule id\n"
        )
        assert sorted(rules_in(src)) == [
            "unused-suppression", "wall-clock",
        ]

    def test_inactive_rule_suppression_not_reported_unused(self):
        # wall-clock is timing-only; outside timing-critical packages the
        # rule never runs, so the waiver may be load-bearing elsewhere
        # (e.g. a docstring example) and must not be flagged.
        src = (
            "import time\n"
            "t = time.monotonic()  "
            "# replint: disable=wall-clock -- doc example\n"
        )
        assert rules_in(src, TABLE_PATH) == []

    def test_deselected_rule_suppression_not_reported_unused(self):
        src = (
            "import time\n"
            "t = time.monotonic()  "
            "# replint: disable=wall-clock -- manifest wall time\n"
        )
        engine = LintEngine(select=["bare-assert"])
        assert engine.lint_source(src, SIM_PATH) == []

    def test_used_suppression_not_reported_unused(self):
        src = (
            "import time\n"
            "t = time.monotonic()  "
            "# replint: disable=wall-clock -- manifest wall time\n"
        )
        assert rules_in(src) == []

    def test_suppression_only_covers_its_own_line(self):
        src = (
            "import time\n"
            "a = time.monotonic()  # replint: disable=wall-clock -- ok here\n"
            "b = time.monotonic()\n"
        )
        findings = LintEngine().lint_source(src, SIM_PATH)
        assert [(f.rule, f.line) for f in findings] == [("wall-clock", 3)]


# -- engine: scoping, selection, robustness -----------------------------------


class TestEngine:
    def test_parse_error_is_a_finding_not_a_crash(self):
        findings = LintEngine().lint_source("def broken(:\n", SIM_PATH)
        assert [f.rule for f in findings] == ["parse-error"]

    def test_select_restricts_rules(self):
        src = "import time\nstart = time.monotonic()\nassert start\n"
        engine = LintEngine(select=["bare-assert"])
        assert [f.rule for f in engine.lint_source(src, SIM_PATH)] == [
            "bare-assert"
        ]

    def test_registry_is_consistent(self):
        assert rule_ids() == {r.rule_id for r in ALL_RULES}
        assert set(RULES_BY_ID) == rule_ids()
        assert {"sim", "raster", "memory", "shader"} <= set(
            TIMING_CRITICAL_PACKAGES
        )

    def test_findings_sorted_and_serializable(self):
        src = "assert a\nx = b == 1.5\n"
        findings = LintEngine().lint_source(src, SIM_PATH)
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        payload = json.loads(json.dumps(findings_payload(findings)))
        assert payload["count"] == len(findings) == 2
        assert {row["rule"] for row in payload["findings"]} == {
            "bare-assert", "float-equality",
        }
        text = format_text(findings)
        assert "replint: 2 findings" in text
        assert f"{SIM_PATH}:1:0: bare-assert" in text

    def test_discovery_skips_pycache(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("import time\ntime.time()\n")
        assert LintEngine.discover([tmp_path]) == [tmp_path / "good.py"]


# -- the gate itself ----------------------------------------------------------


class TestRealTree:
    def test_src_tree_lints_clean(self):
        """The acceptance gate: the shipped tree carries zero findings."""
        findings = lint_paths([REPO_SRC])
        assert findings == [], format_text(findings)

    def test_seeded_bad_module_is_caught(self, tmp_path):
        """A hazard dropped into a sim/ package cannot slip through."""
        bad_dir = tmp_path / "sim"
        bad_dir.mkdir()
        bad = bad_dir / "bad.py"
        bad.write_text(
            "import random\n"
            "import time\n"
            "def jitter(config):\n"
            "    config.frequency_mhz = 600\n"
            "    assert config.frequency_mhz\n"
            "    for core in {1, 2, 3}:\n"
            "        if time.monotonic() == 1.5:\n"
            "            return random.random()\n"
        )
        found = {f.rule for f in lint_paths([tmp_path])}
        assert found == {
            "wall-clock", "unseeded-random", "unordered-iteration",
            "float-equality", "bare-assert", "config-mutation",
        }


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["check", "--only", "lint", "--src", str(REPO_SRC)]) == 0
        assert "replint: no findings" in capsys.readouterr().out

    def test_lint_bad_file_exits_one_with_json(self, tmp_path, capsys):
        bad = tmp_path / "sim" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nx = time.time()\n")
        exit_code = main([
            "check", "--only", "lint", "--src", str(tmp_path),
            "--format=json",
        ])
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)["gates"]["lint"]
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "wall-clock"
        assert payload["findings"][0]["line"] == 2
