import pytest

CRITERIA = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        num = int(name.split("_")[2])
        CRITERIA[num] = (report.outcome == "passed", name)


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        ok, name = CRITERIA[num]
        label = name.replace(f"test_criterion_{num}_", "").replace("_", " ")
        terminalreporter.write_line(
            f"criterion {num} [{'PASS' if ok else 'FAIL'}]: {label}")


@pytest.fixture(scope="session")
def gradcheck_sweep():
    """``gradcheck.run_all(0)``, run once for the session: its results by
    rule, and the op of every node the rules built."""
    from bidrn import gradcheck
    from bidrn.autograd import Var

    built = set()
    init = Var.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.add(self.op)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Var, "__init__", recording)
        results = gradcheck.run_all(seed=0)
    return results, built
