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
def no_compiled_loop(monkeypatch):
    """Run the test without the compiled column walk, as a process does
    when it cannot build or load it: every fill runs the Python loop."""
    monkeypatch.setattr(rng, "_loop", None)


@pytest.fixture
def walk():
    """:func:`triwish.rng.bartlett_fills` on the compiled column walk; the
    test is skipped where the walk cannot be built or loaded."""
    if rng.compiled_loop() is None:
        pytest.skip("no compiled column walk: every fill runs the Python loop")
    return rng.bartlett_fills


@pytest.fixture
def python_fills():
    """:func:`triwish.rng.bartlett_fills` on the Python loop, the engine of
    a process that cannot build or load the compiled walk."""

    def fills(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_loop", None)
            return rng.bartlett_fills(*args)

    return fills
