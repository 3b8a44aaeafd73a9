"""Shared fixtures for the chaos/failpoint test suite.

Every test here runs with a *disarmed* failpoint registry on entry and
exit, and crashes are simulated by swapping the ``os._exit`` primitive
for an exception the test can catch — the crash-consistency scenarios
(``test_crash_consistency.py``) are where processes actually die.
"""

import importlib

import pytest

from repro import failpoints, integrity
from tests.test_src_imports import package_modules


class FakeCrash(BaseException):
    """Stands in for ``os._exit`` so 'crashes' survive in-process.

    Deliberately a ``BaseException``: the write paths under test catch
    ``OSError``/``Exception`` families, and a real ``os._exit`` would
    bypass those handlers exactly like this does.
    """

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


@pytest.fixture(autouse=True)
def _disarmed(monkeypatch):
    for var in (failpoints.FAILPOINTS_ENV, failpoints.GATE_ENV):
        monkeypatch.delenv(var, raising=False)
    failpoints.install("")
    integrity.reset_warnings()
    yield
    failpoints.install("")
    integrity.reset_warnings()


@pytest.fixture
def crash(monkeypatch):
    """Patch the crash primitive; returns the exception type raised."""

    def _exit(code: int) -> None:
        raise FakeCrash(code)

    monkeypatch.setattr(failpoints, "_exit", _exit)
    return FakeCrash


@pytest.fixture(scope="session")
def declared_sites():
    """Every failpoint site the package declares.  A site registers
    when its module is imported, so import every package module (but
    the ``python -m repro`` entry point), then read the registry."""
    for module in package_modules():
        if module != "repro.__main__":
            importlib.import_module(module)
    return failpoints.registered_sites()
