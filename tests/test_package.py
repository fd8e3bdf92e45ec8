"""The package's export list, and what importing the CLI loads."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import mvnsdde
from mvnsdde import _g17


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(mvnsdde).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert mvnsdde.__all__ == sorted(public)


# Exported names that no package code reads and README's library example
# does not run, each with the reason it stays exported.
UNREAD_EXPORTS = {
    "generate": "perfbench's tracer wraps it, until the benchmark's next version",
    "moment_bound_vs_dt": "the paper's moment-bound study, which no subcommand runs yet",
}


def _reads(tree) -> set[str]:
    """The names a module reads (loaded names and attributes), leaving out
    those read only inside the top-level definition of the same name."""
    names = set()
    for top in tree.body:
        found = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        names |= found - {getattr(top, "name", None)}
    return names


def test_every_export_is_read_by_the_package_or_the_readme():
    package = Path(mvnsdde.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        read |= _reads(ast.parse(path.read_text()))
    readme = (package.parent.parent / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("```python", 1)[1]
    read |= _reads(ast.parse(library.split("```", 1)[0]))
    unread = sorted(set(mvnsdde.__all__) - read)
    assert unread == sorted(UNREAD_EXPORTS)


def test_cli_import_leaves_heavy_modules_out():
    # scipy.optimize (which loads scipy.spatial) costs about 0.27 s and
    # 23 MiB, so w2_assignment loads only its solver's extension module, on
    # its first call; the export's formatter imports nothing beyond numpy;
    # the helper threads' concurrent.futures (which loads logging) is
    # imported where a helper starts
    tree = ast.parse(Path(_g17.__file__).read_text())
    kernel_imports = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    absent = ["scipy.optimize", "scipy.spatial", "concurrent.futures", "logging"]
    absent += sorted(kernel_imports - {"numpy", "__future__"})
    code = (
        "import json, sys\nimport mvnsdde.cli\n"
        f"print(json.dumps([name in sys.modules for name in {absent!r}]))"
    )
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert not any(loaded), [n for n, hit in zip(absent, loaded) if hit]


def test_a_run_loads_ndtri_without_scipy_special(tmp_path):
    # scipy.special's __init__ loads 51 more scipy modules and about 13 MiB;
    # a lazy import of it anywhere in a run would move that cost into the work
    root = Path(__file__).resolve().parent.parent
    absent = ["scipy.special", "scipy.special._basic", "scipy._lib._array_api"]
    code = (
        "import json, sys\nimport mvnsdde.cli as cli\n"
        f"cfg = cli.parse({str(root / 'configs' / 'simulate_small.cfg')!r}, "
        f"{{'outdir': {str(tmp_path)!r}}})\n"
        "assert cli.dispatch(cfg) == 0\n"
        f"print(json.dumps([name in sys.modules for name in {absent!r}]))"
    )
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])  # after the run's report
    assert not any(loaded), [n for n, hit in zip(absent, loaded) if hit]
