"""Every command's bytes against the checked-in manifest (tests/cli_manifest.txt)."""

import time

import pytest

import cli_manifest

# Seconds for one in-process replay of the whole manifest.
REPLAY_BOUND_S = 10.0


@pytest.fixture(scope="module")
def replayed():
    start = time.perf_counter()
    lines = cli_manifest.replay()
    return lines, time.perf_counter() - start


def test_every_command_matches_the_manifest(replayed):
    lines, seconds = replayed
    assert cli_manifest.compare(cli_manifest.read(), lines) == ([], [], [])
    assert seconds < REPLAY_BOUND_S


def test_compare_reports_changed_missing_and_extra_lines(replayed):
    lines, _ = replayed
    recorded = cli_manifest.read()
    digest, rest = recorded[5].split(" ", 1)
    changed = recorded[:5] + ["0" * len(digest) + " " + rest] + recorded[6:]
    assert cli_manifest.compare(changed, lines) == ([lines[5]], [], [])
    assert cli_manifest.compare(recorded[1:], lines) == ([], [lines[0]], [])
    extra = "0" * len(digest) + " - witness e no-such-relation"
    assert cli_manifest.compare(recorded + [extra], lines) == ([], [], [extra])
    assert cli_manifest.compare(recorded + [recorded[7]], lines) == ([], [], [recorded[7]])
