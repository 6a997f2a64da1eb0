"""Pytest bootstrap: make ``src/`` importable without an installed package.

The project is normally installed with ``pip install -e .``; this shim keeps
``pytest`` working in fully offline environments where the editable install
cannot build its metadata (no wheel available).

It also keeps tier-1 honest about the checkout: every test module is
bracketed by a snapshot of the files ``git status`` would look at, and
``tests/test_checkout_clean.py`` — collected last — fails when a module
that ran no ``slow`` test changed one (``slow`` benchmarks legitimately
update the tracked ``BENCH_*.json``).
"""

import fnmatch
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_WRITES = pytest.StashKey()
_GUARD_TEST = "test_tier1_modules_write_nothing_under_the_checkout"


def tree_state(root):
    """``{relative path: (mtime_ns, size)}`` of the files under ``root`` that
    its ``.gitignore`` does not cover.

    Understands the pattern forms this repository's ``.gitignore`` uses: a
    trailing ``/`` names a directory (anywhere, or at the given path when the
    pattern has an inner ``/``); anything else is matched against file names.
    """
    ignored_dirs, ignored_files = {".git"}, []
    try:
        with open(os.path.join(root, ".gitignore"), encoding="utf-8") as handle:
            patterns = [line.strip() for line in handle]
    except OSError:
        patterns = []
    for pattern in patterns:
        if pattern.endswith("/"):
            ignored_dirs.add(pattern.strip("/"))
        elif pattern and not pattern.startswith("#"):
            ignored_files.append(pattern)
    state = {}
    for directory, names, files in os.walk(root):
        inside = os.path.relpath(directory, root).replace(os.sep, "/")
        inside = "" if inside == "." else inside + "/"
        names[:] = [
            name for name in names
            if name not in ignored_dirs and inside + name not in ignored_dirs
        ]
        for name in files:
            if any(fnmatch.fnmatch(name, pattern) for pattern in ignored_files):
                continue
            try:
                status = os.stat(os.path.join(directory, name))
            except OSError:
                continue
            state[inside + name] = (status.st_mtime_ns, status.st_size)
    return state


def changed_paths(before, after):
    """Paths created, removed or rewritten between two :func:`tree_state`\\ s."""
    return sorted(
        path for path in before.keys() | after.keys() if before.get(path) != after.get(path)
    )


def pytest_configure(config):
    config.stash[_WRITES] = {}


def pytest_collection_modifyitems(items):
    # Stable: everything keeps its order, the guard's verdict moves to the end.
    items.sort(key=lambda item: item.name == _GUARD_TEST)


@pytest.fixture(scope="module", autouse=True)
def _watch_checkout(request):
    before = tree_state(_ROOT)
    yield
    ran_slow = any(
        item.module is request.module and item.get_closest_marker("slow") is not None
        for item in request.session.items
    )
    changed = changed_paths(before, tree_state(_ROOT))
    if changed and not ran_slow:
        request.config.stash[_WRITES][request.module.__name__] = changed


@pytest.fixture
def checkout_writes(request):
    """``{test module: paths it changed under the checkout}`` so far."""
    return request.config.stash[_WRITES]


@pytest.fixture
def checkout_guard():
    """The guard's two functions, for its own unit test."""
    return tree_state, changed_paths
