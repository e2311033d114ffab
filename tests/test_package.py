"""The package's public surface and the README's library sketch."""

import re
from pathlib import Path

import fdsic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fdsic import *", namespace)
    missing = [name for name in fdsic.__all__ if name not in namespace]
    assert missing == []
    assert len(set(fdsic.__all__)) == len(fdsic.__all__)


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, "README.md", "exec"), {})
