"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """A fresh, empty ``XDG_CACHE_HOME`` per test, so no test reads or writes
    the parse cache in the user's home, and no test sees another's entries.
    Child processes inherit it through the environment."""
    home = tmp_path_factory.mktemp("cache_home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
