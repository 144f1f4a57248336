"""The package and each of its modules import without the test-only scipy,
and the README's "Public surface" section lists each module's `__all__`."""

import importlib
import os
import re
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


def readme_surface() -> dict[str, list[str]]:
    """The README's "Public surface" items: module name -> listed names."""
    text = (ROOT / "README.md").read_text().split("## Public surface", 1)[1]
    text = text.split("\n## ", 1)[0]
    items = re.findall(r"^- `blockade\.(\w+)`:(.*?)(?=^- |\Z)", text, re.M | re.S)
    return {module: re.findall(r"`(\w+)`", names) for module, names in items}


def test_readme_lists_the_public_surface():
    # every module with an ``__all__`` has one README line naming exactly its
    # ``__all__``, in order, and every name listed exists
    listed = readme_surface()
    public = {}
    for name in MODULES:
        module = importlib.import_module(f"blockade.{name}")
        if hasattr(module, "__all__"):
            public[name] = list(module.__all__)
            assert all(hasattr(module, attr) for attr in module.__all__), name
    assert listed == public
