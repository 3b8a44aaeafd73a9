"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hardware.disk import SABRE_DISK, TABLE3_DISK
from repro.media.objects import MediaObject, MediaType
from repro.sim.rng import RandomStream


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden fixtures under tests/golden/data "
             "instead of comparing against them",
    )


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep CLI/executor default caching out of the repository tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def stream() -> RandomStream:
    """A deterministic random stream."""
    return RandomStream(seed=1234)


@pytest.fixture
def sabre():
    """The §3.1 example drive."""
    return SABRE_DISK


@pytest.fixture
def table3():
    """The Table 3 simulation drive."""
    return TABLE3_DISK


def make_object(
    object_id: int = 0,
    bandwidth: float = 60.0,
    num_subobjects: int = 6,
    degree: int = 3,
    fragment_size: float = 12.096,
    name: str = "video",
) -> MediaObject:
    """A small media object for unit tests."""
    return MediaObject(
        object_id=object_id,
        media_type=MediaType(name=name, display_bandwidth=bandwidth),
        num_subobjects=num_subobjects,
        degree=degree,
        fragment_size=fragment_size,
    )


@pytest.fixture
def small_object() -> MediaObject:
    """6 subobjects, M=3."""
    return make_object()
