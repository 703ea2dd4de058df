import siglearn.cli

# run the in-process numerics on one BLAS thread, as the CLI does, so that no
# result depends on whether a test that calls the CLI's main has run before
siglearn.cli.pin_blas_threads()

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
