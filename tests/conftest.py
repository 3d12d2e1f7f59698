import faulthandler
import itertools
import os

import pytest

from domkit import domination
from domkit.cnf import parse_dimacs

# the worked example instance: C1 = {u1, u2, -u3}, C2 = {-u1, u2, u4}, C3 = {-u2, u3, u4}
FIG_DIMACS = "p cnf 4 3\n1 2 -3 0\n-1 2 4 0\n-2 3 4 0\n"

# variant used by the total reinforcement example:
# C1 = {u1, u2, -u3}, C2 = {u1, -u2, u4}, C3 = {-u2, -u3, u4}
FIG4_DIMACS = "p cnf 4 3\n1 2 -3 0\n1 -2 4 0\n-2 -3 4 0\n"

# all eight sign patterns over three variables: unsatisfiable by construction
UNSAT8_DIMACS = "p cnf 3 8\n" + "\n".join(
    " ".join(str(s * v) for s, v in zip(signs, (1, 2, 3))) + " 0"
    for signs in itertools.product((1, -1), repeat=3)
) + "\n"


# The slowest test takes a few seconds; one that runs past this has a search that never ends.
WATCHDOG_SECONDS = 120
# The run's stderr: pytest captures fd 2 while a test runs, and would lose what the watchdog writes.
_stderr_fd = 2


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def watchdog():
    """Past WATCHDOG_SECONDS, dump every thread's traceback and exit, so a hang fails the run at once."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def fig_instance():
    return parse_dimacs(FIG_DIMACS)


@pytest.fixture
def fig4_instance():
    return parse_dimacs(FIG4_DIMACS)


@pytest.fixture
def unsat8_instance():
    return parse_dimacs(UNSAT8_DIMACS)


@pytest.fixture
def minimum_cover_calls(monkeypatch):
    """The cover masks and hint of each ``domination._minimum_cover`` call, as (cover, hint)."""
    calls = []
    minimum_cover = domination._minimum_cover

    def recorded(cover, hint=None):
        calls.append((cover, hint))
        return minimum_cover(cover, hint)

    monkeypatch.setattr(domination, "_minimum_cover", recorded)
    return calls
