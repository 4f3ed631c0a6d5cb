"""The package's import boundary, its reachable surface and its documented
library session."""

import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import langevin_kit

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(langevin_kit.__file__).resolve().parent
ROOTS = (PACKAGE / "cli.py", Path(__file__).resolve().parent / "test_acceptance.py")

# Exported names that neither the CLI nor an acceptance criterion reaches yet,
# with what keeps each one. What an exempt name calls is kept with it. An
# exempt name that gains a caller fails the test, so this list only shrinks.
UNREACHED_EXPORTS = {
    "_rng.normal_block": "perfbench pin: perfbench/tracing.py wraps it (ROADMAP item 1)",
    "_rng.chain_normals": "perfbench pin: perfbench/tracing.py wraps it (ROADMAP item 1)",
    "schemes.scalar_step_closure": "perfbench pin: perfbench/tracing.py wraps it (ROADMAP item 1)",
    "schemes.check_a1_a2": "ROADMAP item 9: the assumptions experiment reports A1/A2",
    "schemes.AssumptionReport": "ROADMAP item 9: the report of check_a1_a2",
    "lyapunov.verify_d2": "ROADMAP item 9: the assumptions experiment reports D2",
    "lyapunov.D2Report": "ROADMAP item 9: the report of verify_d2",
    "lyapunov.v_bar": "ROADMAP item 7: the V-norm distance weighs cells by it",
    "lyapunov.v_cal": "ROADMAP item 7: the energy inside v_bar",
}


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


def _annotations(tree):
    """Every node inside an argument, return or variable annotation."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            root = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            root = node.returns
        else:
            continue
        if root is not None:
            yield from ast.walk(root)


def test_only_rng_derives_streams_from_seeds():
    # _rng holds the seed-derivation policy: a module that reaches numpy.random
    # other than to annotate a Generator makes streams of its own.
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "_rng":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(n.value)
            for n in _annotations(tree)
            if isinstance(n, ast.Attribute) and n.attr == "Generator"
        }
        for node in ast.walk(tree):
            imported = []
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{a.name}" for a in node.names]
            reaches = any(name.startswith("numpy.random") for name in imported) or (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and id(node) not in allowed
            )
            if reaches:
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []


def _top_level(tree):
    """Top-level statements, including those inside try blocks."""
    for node in tree.body:
        if isinstance(node, ast.Try):
            yield from node.body
            for handler in node.handlers:
                yield from handler.body
        else:
            yield node


def _bindings(tree):
    """Names a module binds at top level by def, class or assignment."""
    out = {}
    for node in _top_level(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def _package_imports(tree, modules):
    """Local name -> (module, name) for each import from the package, with
    name None where the local name is a module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("langevin_kit."):
                    out[alias.asname] = (alias.name.split(".", 1)[1], None)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "langevin_kit":
                base = node.module if node.level == 1 and node.module else "__init__"
            elif node.module and node.module.startswith("langevin_kit."):
                base = node.module.split(".", 1)[1]
            else:
                continue
            for alias in node.names:
                is_module = base == "__init__" and alias.name in modules
                out[alias.asname or alias.name] = (
                    (alias.name, None) if is_module else (base, alias.name)
                )
    return out


class _CallGraph:
    """Name references between the package's top-level definitions."""

    def __init__(self):
        self.trees = {
            p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")
        }
        self.defs = {
            (m, n): node for m, t in self.trees.items() for n, node in _bindings(t).items()
        }
        self.imports = {m: _package_imports(t, self.trees) for m, t in self.trees.items()}

    def resolve(self, module, name):
        """The (module, name) that defines ``name`` as seen from ``module``."""
        for _ in self.trees:  # a re-export chain is shorter than the module count
            if (module, name) in self.defs:
                return module, name
            module, name = self.imports[module].get(name, (None, None))
            if name is None:
                return None
        return None

    def references(self, node, module, imports):
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                local = (module, n.id) in self.defs
                out.add((module, n.id) if local else imports.get(n.id, (None, None)))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                base, name = imports.get(n.value.id, (None, None))
                if base is not None and name is None:
                    out.add((base, n.attr))
        return {self.resolve(*ref) for ref in out if ref[1] is not None} - {None}

    def closure(self, keys):
        seen, todo = set(), list(keys)
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo += self.references(self.defs[key], key[0], self.imports[key[0]])
        return seen

    def roots(self):
        out = set()
        for path in ROOTS:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            module = path.stem if path.parent == PACKAGE else None
            imports = self.imports[module] if module else _package_imports(tree, self.trees)
            out |= self.references(tree, module, imports)
        return out

    def exported(self):
        return {
            self.resolve(module, name)
            for module in self.trees
            for name in ast.literal_eval(self.defs[module, "__all__"].value)
        }


def test_every_exported_name_is_reached():
    graph = _CallGraph()
    reached = graph.closure(graph.roots())
    exempt = {tuple(key.split(".")) for key in UNREACHED_EXPORTS}
    exported = graph.exported()
    assert exempt <= exported
    unreached = sorted(".".join(key) for key in exported - graph.closure(reached | exempt))
    assert not unreached, f"exported, but no experiment or criterion reaches {unreached}"
    stale = sorted(".".join(key) for key in exempt & reached)
    assert not stale, f"exempt, but now reached; drop the exemption of {stale}"


def test_readme_library_session_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_scipy_special_loads_only_for_philox_normals(tmp_path):
    # validate and the probes that draw no Philox normal never import
    # scipy.special; the first Philox normal (here a minorization run) does.
    # The version is a literal in __init__.py, so importing the CLI looks up
    # no package metadata.
    code = (
        "import json, sys\n"
        "from langevin_kit import cli\n"
        "out = {'import': (0, 'importlib.metadata' in sys.modules)}\n"
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
        "import": [0, False],
        "validate": [0, False],
        paths[0]: [0, False],
        paths[1]: [0, False],
        paths[2]: [0, False],
        paths[3]: [0, True],
    }
