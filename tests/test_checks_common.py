"""The reporting machinery shared by replint, archcheck and faultcheck."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.checks_common import (
    Finding,
    findings_payload,
    format_text,
    is_timing_critical,
    sort_findings,
)


def finding(**overrides) -> Finding:
    base = dict(
        path="src/repro/sim/engine.py", line=10, col=4,
        rule="some-rule", message="something is off",
    )
    base.update(overrides)
    return Finding(**base)


class TestFinding:
    def test_as_dict_omits_empty_fingerprint(self):
        payload = finding().as_dict()
        assert "fingerprint" not in payload
        assert payload["rule"] == "some-rule"

    def test_as_dict_includes_set_fingerprint(self):
        payload = finding(fingerprint="some-rule:a:b").as_dict()
        assert payload["fingerprint"] == "some-rule:a:b"

    def test_location_is_grep_style(self):
        assert finding().location() == "src/repro/sim/engine.py:10:4"

    def test_findings_are_immutable_and_hashable(self):
        a = finding()
        b = finding()
        assert a == b
        assert len({a, b}) == 1


class TestSortFindings:
    def test_orders_by_path_line_col_rule(self):
        rows = [
            finding(path="b.py", line=1, col=0, rule="z"),
            finding(path="a.py", line=9, col=0, rule="z"),
            finding(path="a.py", line=1, col=5, rule="z"),
            finding(path="a.py", line=1, col=5, rule="a"),
        ]
        ordered = sort_findings(rows)
        assert [(f.path, f.line, f.col, f.rule) for f in ordered] == [
            ("a.py", 1, 5, "a"),
            ("a.py", 1, 5, "z"),
            ("a.py", 9, 0, "z"),
            ("b.py", 1, 0, "z"),
        ]

    def test_does_not_mutate_the_input(self):
        rows = [finding(line=2), finding(line=1)]
        sort_findings(rows)
        assert rows[0].line == 2


class TestFormatText:
    def test_empty_report_says_no_findings(self):
        assert format_text([], tool="faultcheck") == (
            "faultcheck: no findings"
        )

    def test_singular_and_plural_summaries(self):
        assert format_text([finding()]).endswith("replint: 1 finding")
        assert format_text([finding(), finding(line=11)]).endswith(
            "replint: 2 findings"
        )

    def test_lines_are_grep_style(self):
        text = format_text([finding()], tool="faultcheck")
        assert text.splitlines()[0] == (
            "src/repro/sim/engine.py:10:4: some-rule: something is off"
        )


class TestFormatJson:
    def test_shape_round_trips(self):
        payload = json.loads(json.dumps(findings_payload(
            [finding(fingerprint="f:p")], tool="faultcheck"
        )))
        assert payload["tool"] == "faultcheck"
        assert payload["count"] == 1
        assert payload["findings"][0]["fingerprint"] == "f:p"

    def test_extra_keys_merge_into_the_top_level(self):
        payload = findings_payload(
            [], tool="faultcheck", stats={"modules": 3}, stale_baseline=[]
        )
        assert payload["stats"] == {"modules": 3}
        assert payload["stale_baseline"] == []
        assert payload["count"] == 0

    def test_findings_come_out_sorted(self):
        payload = findings_payload([
            finding(path="b.py"), finding(path="a.py"),
        ])
        assert [row["path"] for row in payload["findings"]] == [
            "a.py", "b.py",
        ]


class TestTimingCritical:
    def test_simulator_packages_are_critical(self):
        assert is_timing_critical(Path("src/repro/sim/pipeline.py"))
        assert is_timing_critical(Path("src/repro/core/tile_order.py"))

    def test_reporting_packages_are_not(self):
        assert not is_timing_critical(Path("src/repro/analysis/tables.py"))
        assert not is_timing_critical(Path("tests/test_cli.py"))
