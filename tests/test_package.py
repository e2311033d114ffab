"""The package's public surface, and the README's library sketch and
config-file example."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import fdsic
from fdsic import SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fdsic import *", namespace)
    missing = [name for name in fdsic.__all__ if name not in namespace]
    assert missing == []
    assert len(set(fdsic.__all__)) == len(fdsic.__all__)


def test_import_leaves_the_oracles_unloaded():
    # the production modules never import the checks of fdsic.validation
    probe = "import sys, fdsic; print('fdsic.validation' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(fdsic.__file__).parents[1])},
    )
    assert result.stdout.strip() == "False"


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
