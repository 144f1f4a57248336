"""The package and each of its modules import without the test-only scipy."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "blockade").glob("*.py") if p.stem != "__init__")


def test_all_modules_found():
    assert {"basis", "bounds", "cli", "dynamics", "series", "verify", "words"} <= set(MODULES)


def test_no_scipy_at_import():
    code = "\n".join(
        ["import sys", "import blockade"]
        + [f"import blockade.{m}" for m in MODULES]
        + ["print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
