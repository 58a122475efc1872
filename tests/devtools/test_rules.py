"""Each built-in rule fires on its violating fixture and stays silent
on the matching clean one.

Fixture files under ``fixtures/`` are never imported or executed — they
exist purely as AST input.  Expected counts are exact so a rule that
starts over- or under-reporting fails loudly.
"""

from pathlib import Path

import pytest

from repro.devtools import all_rules, lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# (rule id, violating fixture, expected findings, clean fixture)
RULE_CASES = [
    ("REPRO101", "r101_global_rng.py", 6, "r101_clean.py"),
    ("REPRO102", "r102_mutable_default.py", 4, "r102_clean.py"),
    ("REPRO103", "r103_bare_except.py", 3, "r103_clean.py"),
    ("REPRO104", "r104_float_equality.py", 4, "r104_clean.py"),
    ("REPRO105", "r105_unit_suffix.py", 6, "r105_clean.py"),
    ("REPRO106", "infrastructure/r106_unvalidated.py", 1, "infrastructure/r106_clean.py"),
    ("REPRO107", "r107_stray_print.py", 2, "cli.py"),
    ("REPRO108", "core/r108_missing_annotations.py", 4, "core/r108_clean.py"),
    ("REPRO109", "emulator/r109_per_trace_loops.py", 5, "emulator/r109_clean.py"),
    # The whole-program rules take mini-package directories, not single
    # files: their findings are properties of several modules at once.
    ("REPRO111", "r111_purity", 4, "r111_purity_clean"),
    ("REPRO112", "r112_units", 5, "r112_units_clean"),
    ("REPRO113", "r113_dead", 2, "r113_clean"),
]


def test_every_rule_has_a_fixture_case():
    covered = {case[0] for case in RULE_CASES}
    assert covered == {cls.rule_id for cls in all_rules()}


@pytest.mark.parametrize(
    "rule_id,bad,expected,clean", RULE_CASES, ids=[c[0] for c in RULE_CASES]
)
def test_rule_fires_on_violation(rule_id, bad, expected, clean):
    findings = lint_paths([FIXTURES / bad], select=[rule_id])
    assert len(findings) == expected, [f.render() for f in findings]
    assert {f.rule_id for f in findings} == {rule_id}
    for finding in findings:
        assert finding.line > 0 and finding.col >= 0
        assert finding.message


@pytest.mark.parametrize(
    "rule_id,bad,expected,clean", RULE_CASES, ids=[c[0] for c in RULE_CASES]
)
def test_rule_silent_on_clean_fixture(rule_id, bad, expected, clean):
    findings = lint_paths([FIXTURES / clean], select=[rule_id])
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize(
    "clean",
    sorted(
        {case[3] for case in RULE_CASES},
    ),
)
def test_clean_fixtures_clean_under_all_rules(clean):
    """Clean fixtures must not trip *any* rule, not just their own."""
    findings = lint_paths([FIXTURES / clean])
    assert findings == [], [f.render() for f in findings]


def test_scoped_rules_ignore_out_of_scope_paths(tmp_path):
    """R106/R107-style scoping: the same source outside the scoped
    package directories produces no findings."""
    source = (FIXTURES / "infrastructure" / "r106_unvalidated.py").read_text()
    out_of_scope = tmp_path / "elsewhere" / "module.py"
    out_of_scope.parent.mkdir()
    out_of_scope.write_text(source)
    assert lint_paths([out_of_scope], select=["REPRO106"]) == []

    source = (FIXTURES / "core" / "r108_missing_annotations.py").read_text()
    out_of_scope.write_text(source)
    assert lint_paths([out_of_scope], select=["REPRO108"]) == []
