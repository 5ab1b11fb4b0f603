"""The quick demos and the README's library example run and print what they say.

Demos 03 (about 13 s) and 04 (the CLI walkthrough, which needs the
``teamscope`` script installed) are left to be run by hand.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.DOTALL)
    assert match, "README has no Library use python block"
    return match.group(1)


# each quick demo and a line of what it prints
DEMOS = {
    "01_commit_classification.py": "'Fixed logout'",
    "02_team_features.py": "churn share identity",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script):
    assert DEMOS[script] in _run([str(ROOT / "demos" / script)])


def test_readme_library_example_runs():
    out = _run(["-c", _readme_library_block()])
    assert out.splitlines()[0] == "Bugfix"
