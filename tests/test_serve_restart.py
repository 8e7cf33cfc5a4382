"""``serve`` and ``site`` restart one way: the aggregator protocol.

``serve --checkpoint-dir`` writes the root's ``aggregator-0.json`` with
its ARQ cursors; ``site --checkpoint-dir`` writes ``site-<id>.json`` and
the uplink's next sequence number in ``site-<id>.manifest.json``.  A
restarted run must print what one uninterrupted run prints, however the
site comes back: resumed (its sequence continues) or fresh (it replays
the whole stream, and the updates the root already applied are
suppressed as duplicates).

One site, so cross-site arrival order cannot enter the state.  The first
half is recorded once and its checkpoint directory copied per restart.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BASE = [sys.executable, "-u", "-m", "repro.cli"]
SERVE = ["serve", "--port", "0", "--expected-sites", "1", "--clusters", "4",
         "--timeout", "60"]
SITE = ["--chunk", "100", "--clusters", "2", "--dim", "4", "--p-new", "0.9",
        "--epsilon", "0.01"]


def run(records: int, serve=(), site=()) -> tuple[list[str], str]:
    """One serve process and one site streaming ``records``; returns the
    server's stdout lines and its stderr."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    server = subprocess.Popen(
        BASE + SERVE + list(serve), cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = ""
        while not banner.startswith("listening on 127.0.0.1:"):
            banner = server.stdout.readline().strip()
            assert banner or server.poll() is None, server.stderr.read()
        client = subprocess.run(
            BASE + ["site", "--port", banner.rsplit(":", 1)[1],
                    "--records", str(records)] + SITE + list(site),
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert client.returncode == 0, client.stdout + client.stderr
        out, err = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert server.returncode == 0, out + err
    return out.splitlines(), err


def coordinator_line(lines: list[str]) -> str:
    (line,) = [line for line in lines if line.startswith("coordinator:")]
    return line


def root(lines: list[str]) -> list[str]:
    return [line for line in lines if line.startswith("  w=")]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The straight 3000-record run, and the first 1500 checkpointed."""
    first = tmp_path_factory.mktemp("first")
    flags = ["--checkpoint-dir", str(first)]
    run(1500, serve=flags, site=flags)
    straight, _ = run(3000)
    return straight, first


def restart_dir(first: Path, tmp_path: Path) -> list[str]:
    target = tmp_path / "ckpt"
    shutil.copytree(first, target)
    return ["--checkpoint-dir", str(target)]


def test_resumed_serve_and_resumed_site_match_the_straight_run(
    recorded, tmp_path
):
    straight, first = recorded
    flags = restart_dir(first, tmp_path) + ["--resume"]
    lines, _ = run(3000, serve=flags, site=flags)
    assert len(root(straight)) == 4
    assert root(lines) == root(straight)
    assert coordinator_line(lines) == coordinator_line(straight)


def test_a_replaying_site_is_applied_once(recorded, tmp_path):
    straight, first = recorded
    lines, _ = run(3000, serve=restart_dir(first, tmp_path) + ["--resume"])
    assert coordinator_line(lines) == coordinator_line(straight)
    assert "dupes_suppressed=1" in next(
        line for line in lines if line.startswith("delivery:")
    )
    assert root(lines) == root(straight)
