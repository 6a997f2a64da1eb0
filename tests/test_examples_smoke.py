"""Smoke-test every example script with tiny arguments.

The examples double as living documentation of the public API; this suite
runs each one in a subprocess — tiny inputs, private trace cache — so that
API drift breaks the tier-1 build instead of rotting silently.  Only the
exit status and the absence of a traceback are asserted: the examples own
their narratives, the build owns their executability.
"""

import os
import subprocess
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_EXAMPLES = os.path.join(_REPO_ROOT, "examples")

#: script -> tiny argv (every example accepts scale arguments precisely so
#: this suite can run it in seconds).
_TINY_ARGS = {
    "quickstart.py": ["600"],
    "case_study_speedup.py": ["2000"],
    "simulated_outage.py": ["80"],
    "trace_analysis.py": ["2", "2"],
    "full_table.py": ["4000", "2"],
    "live_daemon.py": ["0.05", "40"],
}


def test_every_example_has_tiny_arguments():
    """A new example must be registered here (with args that keep it tiny)."""
    scripts = sorted(
        name for name in os.listdir(_EXAMPLES) if name.endswith(".py")
    )
    assert scripts == sorted(_TINY_ARGS)


@pytest.mark.parametrize("script", sorted(_TINY_ARGS))
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ)
    # Examples do `sys.path.insert(0, "src")`, so run from the repo root;
    # a private cache keeps smoke runs from touching the shared one.
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "cache")
    completed = subprocess.run(
        [sys.executable, os.path.join("examples", script), *_TINY_ARGS[script]],
        cwd=_REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, (
        f"{script} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
    )
    assert "Traceback" not in completed.stderr
    assert completed.stdout.strip(), f"{script} printed nothing"
