"""End-to-end check of the git export contract against a real repository."""

import shutil
import subprocess

import pytest

from teamscope.ingest import GIT_LOG_COMMAND, parse_git_log

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")


def _git(repo, *args, **env_overrides):
    env = {
        "GIT_AUTHOR_NAME": env_overrides.get("name", "Alice"),
        "GIT_AUTHOR_EMAIL": env_overrides.get("email", "alice@example.edu"),
        "GIT_COMMITTER_NAME": env_overrides.get("name", "Alice"),
        "GIT_COMMITTER_EMAIL": env_overrides.get("email", "alice@example.edu"),
        "GIT_AUTHOR_DATE": env_overrides.get("date", "1443657600 +0000"),
        "GIT_COMMITTER_DATE": env_overrides.get("date", "1443657600 +0000"),
        "HOME": str(repo),
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )


def test_export_command_round_trips_through_parser(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")

    (repo / "A.java").write_text("one\ntwo\nthree\n")
    _git(repo, "add", "A.java")
    _git(repo, "commit", "-q", "-m", "Fixed logout")

    (repo / "A.java").write_text("one\nTWO\nthree\nfour\n")
    (repo / "logo.png").write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(range(80)))
    _git(repo, "add", "A.java", "logo.png")
    _git(
        repo,
        "commit",
        "-q",
        "-m",
        "more test cases",
        name="Bob",
        email="bob@example.edu",
        date="1443661200 +0000",
    )

    # a | in a name, which the NUL-separated header keeps apart from the other fields
    (repo / "README").write_text("notes\n")
    _git(repo, "add", "README")
    _git(repo, "commit", "-q", "-m", "docs | readme", name="Ann|Lee", email="ann@example.edu", date="1443664800 +0000")

    out = subprocess.run(
        ["git", "-C", str(repo), *GIT_LOG_COMMAND.split()[1:]],
        check=True,
        capture_output=True,
        text=True,
    )
    assert "Ann|Lee" in out.stdout
    records = parse_git_log(out.stdout)
    assert len(records) == 3
    piped, newest, oldest = records  # git log lists newest first

    assert piped.message == "docs | readme"
    assert piped.author_key == "ann@example.edu"
    assert piped.timestamp == 1443664800
    assert [(f.path, f.additions, f.deletions) for f in piped.files] == [("README", 1, 0)]

    assert oldest.message == "Fixed logout"
    assert oldest.author_key == "alice@example.edu"
    assert oldest.timestamp == 1443657600
    assert oldest.additions == 3 and oldest.deletions == 0

    assert newest.message == "more test cases"
    assert newest.author_key == "bob@example.edu"
    assert newest.timestamp == 1443661200
    paths = {f.path: f for f in newest.files}
    assert paths["logo.png"].binary
    assert paths["A.java"].additions == 2 and paths["A.java"].deletions == 1
