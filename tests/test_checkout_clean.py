"""Tier-1 leaves ``git status`` clean.

The root ``conftest.py`` snapshots the un-ignored files of the checkout around
every test module and sorts the verdict below to the end of the run.  Results
a tier-1 test wants to keep go under pytest's temp dir (``tmp_path``); only
``slow`` benchmarks update tracked artifacts.
"""

import os


def test_tier1_modules_write_nothing_under_the_checkout(checkout_writes):
    assert not checkout_writes, "\n".join(
        f"{module} changed {', '.join(paths)}"
        for module, paths in sorted(checkout_writes.items())
    )


def test_guard_sees_what_git_status_would(tmp_path, checkout_guard):
    tree_state, changed_paths = checkout_guard
    (tmp_path / ".gitignore").write_text("__pycache__/\n*.pyc\nbench/out/\n")
    for directory in ("src/__pycache__", "bench/out", "out", ".git"):
        os.makedirs(tmp_path / directory)
    (tmp_path / "BENCH_replay.json").write_text("{}\n")
    before = tree_state(str(tmp_path))
    assert changed_paths(before, tree_state(str(tmp_path))) == []

    (tmp_path / "BENCH_replay.json").write_text('{"rewritten": true}\n')
    (tmp_path / "out" / "new.txt").write_text("untracked, not ignored\n")
    (tmp_path / "src" / "__pycache__" / "m.pyc").write_text("ignored directory\n")
    (tmp_path / "src" / "m.pyc").write_text("ignored file name\n")
    (tmp_path / "bench" / "out" / "spans.jsonl").write_text("ignored path\n")
    (tmp_path / ".git" / "index").write_text("not part of the work tree\n")
    assert changed_paths(before, tree_state(str(tmp_path))) == [
        "BENCH_replay.json",
        "out/new.txt",
    ]
