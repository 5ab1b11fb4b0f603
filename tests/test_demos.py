"""The demos, the CLI walkthrough and the README's library example run and
print what they say. Demo 03 is the slowest (about 12 s): it trains and
evaluates both team-style models and flags solo-submitters.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(command, bin_dir=None):
    """Standard output of ``command`` run from the repository root with the
    package importable and ``bin_dir``, if given, first on PATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.DOTALL)
    assert match, "README has no Library use python block"
    return match.group(1)


# each Python demo and a line of what it prints
DEMOS = {
    "01_commit_classification.py": "'Fixed logout'",
    "02_team_features.py": "churn share identity",
    "03_team_styles.py": "teams as solo-submit; most confident first:",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script):
    assert DEMOS[script] in _run([sys.executable, str(ROOT / "demos" / script)])


def test_cli_walkthrough_runs(tmp_path):
    # the demo calls the installed ``teamscope`` script; a wrapper on PATH stands in for it
    wrapper = tmp_path / "teamscope"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m teamscope "$@"\n', encoding="utf-8")
    wrapper.chmod(0o755)
    out = _run(["bash", str(ROOT / "demos" / "04_cli_pipeline.sh")], bin_dir=tmp_path)
    assert "./corpus/manifest_flag.json" in out.splitlines()


def test_readme_library_example_runs():
    out = _run([sys.executable, "-c", _readme_library_block()])
    assert out.splitlines()[0] == "Bugfix"
