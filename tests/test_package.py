"""The package's import boundary and its documented library session."""

import json
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


def test_scipy_special_loads_only_for_philox_normals(tmp_path):
    # validate and the probes that draw no Philox normal never import
    # scipy.special; the first Philox normal (here a minorization run) does.
    code = (
        "import json, sys\n"
        "from langevin_kit import cli\n"
        "out = {}\n"
        "for name in cli.EXPERIMENTS:\n"
        "    gamma = 0.01 if name == 'drift-check' else 0.1\n"
        "    cli.validate_config({'experiment': name,\n"
        "                         'scheme': {'kind': 'EulerMaruyama', 'gamma': gamma}})\n"
        "out['validate'] = (0, 'scipy.special' in sys.modules)\n"
        "for path in sys.argv[1:]:\n"
        "    code = cli.main(['run', path])\n"
        "    out[path] = (code, 'scipy.special' in sys.modules)\n"
        "print(json.dumps(out))\n"
    )
    runs = {
        "drift-check": {
            "d": 2,
            "scheme": {"kind": "SplitCABAC", "gamma": 0.01},
            "potential": {"kind": "quartic-well"},
            "monte_carlo": {"varpi": 0.1, "radii": [5.0, 20.0], "samples": 2000},
        },
        "covariance-check": {
            "scheme": {"kind": "EulerMaruyama", "gamma_grid": [0.05, 0.025]},
            "monte_carlo": {"t0": 0.5},
        },
        "stability-check": {
            "scheme": {"kind": "SplitCABAC", "gamma": 0.1},
            "monte_carlo": {"k": 5, "trials": 200},
        },
        "minorization": {
            "scheme": {"kind": "EulerMaruyama", "gamma_grid": [0.05]},
            "monte_carlo": {"pairs": 1, "samples": 10},
        },
    }
    paths = []
    for name, cfg in runs.items():
        path = tmp_path / f"{name}.json"
        cfg = dict(cfg, experiment=name, output=str(tmp_path / name))
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(str(path))
    src = str(Path(langevin_kit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *paths],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    assert got == {
        "validate": [0, False],
        paths[0]: [0, False],
        paths[1]: [0, False],
        paths[2]: [0, False],
        paths[3]: [0, True],
    }
