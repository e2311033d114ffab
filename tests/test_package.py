"""The package's public surface and the README's library sketch."""

import os
import re
import subprocess
import sys
from pathlib import Path

import fdsic

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
