"""Package layout: the README module map and the module imports.

The package root re-exports nothing, so every name is imported from its
module; each module must import on its own in a fresh interpreter.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "pbk").glob("*.py")
                 if p.stem != "__init__")


def test_readme_module_map_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\| `pbk\.(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(listed) == MODULES


def test_each_module_imports_in_a_fresh_interpreter():
    script = (
        "import importlib, sys\n"
        "import pbk\n"
        "assert [n for n in vars(pbk) if not n.startswith('_')] == [], vars(pbk)\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module('pbk.' + name)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *MODULES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
