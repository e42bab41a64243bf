import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import quadcantor as qc


def test_all_lists_every_imported_name_and_no_module():
    tree = ast.parse(Path(qc.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert not [n for n in qc.__all__ if isinstance(getattr(qc, n), ModuleType)]
    assert set(qc.__all__) == imported


def test_import_loads_no_numpy():
    code = "import sys, quadcantor; print('numpy' in sys.modules)"
    src = str(Path(qc.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"
