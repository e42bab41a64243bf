import ast
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import ModuleType

import quadcantor as qc
import quadcantor.cli  # noqa: F401


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


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except on ``# noqa: F401`` lines."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's own imports are its public names, which
    # test_all_lists_every_imported_name_and_no_module checks
    modules = sorted(Path(qc.__file__).parent.glob("*.py"))
    found = [u for path in modules if path.name != "__init__.py" for u in unused_imports(path)]
    assert found == []


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


def test_no_module_holds_mutable_state_or_a_cache():
    # caches live on the objects they derive from, never in a module
    held = []
    for name, module in sorted(sys.modules.items()):
        if name != "quadcantor" and not name.startswith("quadcantor."):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"):
                held.append(f"{name}.{attr}")
    assert held == []


def test_a_dropped_spec_is_freed():
    field = qc.make_field(-1)
    spec = qc.ifs_new(field.element(3), [field.element(0), field.element(2)])
    assert qc.is_member(field.element(1), 4, spec)
    assert len(qc.enumerate_level(4, field.element(2), spec)) == 4
    rep = qc.full_intersection(field.element(2), spec, mode="certified", cap=10**4)
    assert rep.certified_n0 == rep.level and rep.exhausted
    ref = weakref.ref(spec)
    del spec, rep
    gc.collect()
    assert ref() is None
