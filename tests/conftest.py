import pytest

from triwish import rng


_CRITERION_LINES = []


@pytest.fixture
def criterion():
    """Recorder for one acceptance-criterion verdict line.

    The lines are printed immediately (visible with -s) and replayed in a
    terminal-summary section so they always appear in the pytest output.
    """

    def record(num, passed, elapsed, description):
        verdict = "PASS" if passed else "FAIL"
        line = f"[criterion {num:2d}] {verdict} ({elapsed:6.2f}s) {description}"
        _CRITERION_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def math_box_muller(monkeypatch):
    """Run the test with ``box_muller`` on the ``math`` map, the path a
    process takes when the compiled loop cannot be built or loaded."""
    monkeypatch.setattr(rng, "_loop", None)
