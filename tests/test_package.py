"""The package's import boundary and its documented library session."""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import langevin_kit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_modules_do_not_import_the_cli():
    modules = sorted(
        m.name for m in pkgutil.iter_modules(langevin_kit.__path__) if m.name != "cli"
    )
    assert {"core", "potentials", "schemes", "lyapunov", "convergence"} <= set(modules)
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('langevin_kit.' + name)\n"
        "print('langevin_kit.cli' in sys.modules)\n"
    )
    src = str(Path(langevin_kit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_readme_library_session_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
