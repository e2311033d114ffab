"""The package's public surface, and the README's library sketch and
config-file example."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fdsic
from fdsic import SimConfig, cli, estimator, validation

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fdsic import *", namespace)
    missing = [name for name in fdsic.__all__ if name not in namespace]
    assert missing == []
    assert len(set(fdsic.__all__)) == len(fdsic.__all__)


def _probe(code: str) -> str:
    """The last line a fresh interpreter prints after running code."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(fdsic.__file__).parents[1])},
    )
    return result.stdout.splitlines()[-1]


def test_import_leaves_the_oracles_unloaded(tmp_path):
    # the production modules never import the checks of fdsic.validation,
    # and a sweep runs on scipy's compiled BLAS and LAPACK modules without
    # the scipy.linalg package
    out = str(tmp_path / "snr.csv")
    probe = (
        "import sys, fdsic, fdsic.cli\n"
        "fdsic.cli.main(['sweep-snr', '--fast', '--trials', '2', '--out', "
        f"{out!r}])\n"
        "print([name for name in ('fdsic.validation', 'scipy.linalg') "
        "if name in sys.modules])"
    )
    assert _probe(probe) == "[]"


def test_validate_runs_without_the_scipy_linalg_package():
    # the oracles call the compiled modules the engine loads, so validate
    # runs its checks without the scipy.linalg package too
    probe = (
        "import sys, fdsic.cli\n"
        "status = fdsic.cli.main(['validate', '--fast'])\n"
        "print(status, [name for name in ('fdsic.validation', 'scipy.linalg') "
        "if name in sys.modules])"
    )
    assert _probe(probe) == "0 ['fdsic.validation']"


def test_estimator_imports_nothing_from_fdsic():
    # the estimator takes the phase statistics as a plain kernel array, so
    # it depends on numpy and scipy alone, never on the simulator
    tree = ast.parse(Path(estimator.__file__).read_text())
    imported = [
        (node.level, node.module) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        (0, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    ]
    assert imported
    assert [
        (level, name) for level, name in imported
        if level > 0 or (name or "").split(".")[0] == "fdsic"
    ] == []


def _foreign_routines(first: str, module: str, routines: dict) -> str:
    """What a fresh interpreter that imports first and then scipy.linalg
    finds in fdsic's module: its compiled modules and named routines that
    are not the very objects scipy.linalg.blas and scipy.linalg.lapack
    export, as a printed list."""
    probe = (
        f"import importlib; importlib.import_module({first!r})\n"
        "import scipy.linalg\n"
        f"from fdsic import {module} as holder\n"
        f"routines = {routines!r}\n"
        "print([module for module in routines if getattr(holder, module) "
        "is not getattr(getattr(scipy.linalg, module), '_f' + module)] + "
        "[f'{module}.{name}' for module, names in routines.items() "
        "for name in names if getattr(getattr(holder, module), name) "
        "is not getattr(getattr(scipy.linalg, module), name)])"
    )
    return _probe(probe)


@pytest.mark.parametrize("first", ["fdsic", "scipy.linalg"])
def test_engine_routines_are_the_ones_scipy_linalg_exports(first):
    # whichever of fdsic and scipy.linalg is imported first, the engine
    # holds the one instance of each compiled module and calls the very
    # objects scipy.linalg.blas and scipy.linalg.lapack export
    source = Path(estimator.__file__).read_text()
    routines = {
        module: sorted(set(re.findall(rf"\b{module}\.(\w+)\(", source)))
        for module in ("blas", "lapack")
    }
    assert routines == {
        "blas": ["zgemm", "zhemm"],
        "lapack": ["dptsv", "dsterf", "zhetrd", "zhetrd_lwork", "zunmqr"],
    }
    assert _foreign_routines(first, "estimator", routines) == "[]"


@pytest.mark.parametrize("first", ["fdsic", "scipy.linalg"])
def test_oracle_routines_are_the_ones_scipy_linalg_exports(first):
    # the oracles take every BLAS and LAPACK routine from the engine's two
    # compiled modules; the Cholesky pairs are passed, not called, where
    # they are named
    source = Path(validation.__file__).read_text()
    routines = {
        module: sorted(set(re.findall(rf"\b{module}\.([a-z]\w*)", source)))
        for module in ("blas", "lapack")
    }
    assert routines == {
        "blas": ["zgemm", "zherk"],
        "lapack": ["dpotrf", "dpotrs", "zpotrf", "zpotrs"],
    }
    assert _foreign_routines(first, "validation", routines) == "[]"


def test_loader_falls_back_to_the_package_import(tmp_path):
    # where no file of the compiled modules is found beside scipy.linalg, as
    # under an editable scipy, the loader imports them through the package,
    # and a sweep writes the same bytes
    argv = ["sweep-snr", "--fast", "--trials", "2"]
    fallback_csv, plain_csv = tmp_path / "fallback.csv", tmp_path / "plain.csv"
    probe = (
        "import importlib.machinery, sys\n"
        "find_spec = importlib.machinery.PathFinder.find_spec\n"
        "refused = []\n"
        "def find_no_file_before_the_package(fullname, path=None, target=None):\n"
        "    if fullname.startswith('scipy.linalg._f') "
        "and 'scipy.linalg' not in sys.modules:\n"
        "        refused.append(fullname)\n"
        "        return None\n"
        "    return find_spec(fullname, path, target)\n"
        "importlib.machinery.PathFinder.find_spec = "
        "find_no_file_before_the_package\n"
        "from fdsic import cli, estimator\n"
        "loaded = 'scipy.linalg' in sys.modules\n"
        f"cli.main({[*argv, '--out', str(fallback_csv)]!r})\n"
        "print(refused, loaded, "
        "estimator.blas is sys.modules['scipy.linalg._fblas'], "
        "estimator.lapack is sys.modules['scipy.linalg._flapack'])"
    )
    assert _probe(probe) == "['scipy.linalg._fblas'] True True True"
    assert cli.main([*argv, "--out", str(plain_csv)]) == 0
    assert fallback_csv.read_bytes() == plain_csv.read_bytes()


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, "README.md", "exec"), {})


def test_readme_config_file_example_is_the_default_config(tmp_path):
    # the example sets every field once, at its default, so the docs can
    # neither name a key the config lacks nor leave one out
    text = README.read_text()
    section = text.split("### Config files", 1)[1]
    example = re.search(r"```\n(.*?)```", section, re.S).group(1)
    keys = re.findall(r"^(\w+) =", example, re.M)
    assert keys == [field.name for field in dataclasses.fields(SimConfig)]
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    assert SimConfig.from_file(path) == SimConfig()
