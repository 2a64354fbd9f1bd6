#!/usr/bin/env python3
"""Self-test for tools/check_invariants.py (DESIGN.md §15).

Two halves, so a lint rule can never silently rot into a no-op:
  1. the live tree must pass (exit 0), and
  2. every seeded-violation fixture under tools/lint_fixtures/ must FAIL,
     with the expected rule id (from the fixture directory's leading letter)
     present in the linter's output.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINTER = REPO / "tools" / "check_invariants.py"
FIXTURES = REPO / "tools" / "lint_fixtures"


def run_linter(root: Path):
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    code, output = run_linter(REPO)
    if code != 0:
        failures.append(f"live tree: expected clean, got exit {code}:\n"
                        f"{output}")

    fixtures = sorted(p for p in FIXTURES.iterdir() if p.is_dir())
    if len(fixtures) < 6:
        failures.append(f"expected >= 6 fixtures (one per rule), found "
                        f"{len(fixtures)}")
    seen_rules = set()
    for fixture in fixtures:
        expected_rule = f"INV-{fixture.name[0].upper()}"
        seen_rules.add(expected_rule)
        code, output = run_linter(fixture)
        if code == 0:
            failures.append(f"{fixture.name}: expected a violation, linter "
                            "was clean")
        elif expected_rule not in output:
            failures.append(f"{fixture.name}: expected {expected_rule} in "
                            f"output, got:\n{output}")
    missing = {"INV-A", "INV-B", "INV-C", "INV-D", "INV-E", "INV-F"} - \
        seen_rules
    if missing:
        failures.append(f"rules with no fixture: {sorted(missing)}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"ok: live tree clean, {len(fixtures)} fixtures each rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
