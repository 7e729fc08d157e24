"""Pytest hooks: one visible PASS/FAIL line per acceptance criterion."""

from pathlib import PurePosixPath


def pytest_runtest_logreport(report):
    test_file = PurePosixPath(report.nodeid.split("::", 1)[0]).name
    if report.when != "call" or test_file != "test_acceptance.py":
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\n[ACCEPTANCE {outcome}] {name}", flush=True)
