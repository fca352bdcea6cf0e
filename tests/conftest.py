"""Shared pytest plumbing: acceptance-criterion summary lines and the
tracemalloc peak of a call."""

import tracemalloc

ACCEPTANCE_LINES = []


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of fn(); tracing stops on the way
    out, also on an error."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_criterion(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES.append(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
