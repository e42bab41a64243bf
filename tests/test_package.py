import ast
import dataclasses
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import ModuleType

import pytest

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


def test_no_module_asserts():
    # python -O strips assert statements, so no check of the library is one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the modules that decide anything, and the float diagnostics allowed in them
DECISION_MODULES = (
    "ntheory", "ideals", "orders", "exactmath", "membership", "intersection", "fractal"
)
FLOAT_DIAGNOSTICS = {"fractal": {"similarity_dimension", "sample_points", "box_dim_estimate"}}


def float_calls(path: Path, allowed=frozenset()) -> list[str]:
    """Calls that make a float or complex number, outside the ``allowed``
    top-level functions: float, complex, math.sqrt, math.log*, math.exp,
    math.pow and .to_complex."""
    found = []
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.FunctionDef) and top.name in allowed:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("float", "complex"):
                name = f.id
            elif isinstance(f, ast.Attribute) and f.attr == "to_complex":
                name = ".to_complex"
            elif (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "math"
                and (f.attr in ("sqrt", "exp", "pow") or f.attr.startswith("log"))
            ):
                name = f"math.{f.attr}"
            else:
                continue
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_decision_modules_make_no_floats():
    root = Path(qc.__file__).parent
    found = [
        call
        for name in DECISION_MODULES
        for call in float_calls(root / f"{name}.py", FLOAT_DIAGNOSTICS.get(name, frozenset()))
    ]
    assert found == []


def test_float_guard_sees_each_float_call(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import math\n"
        "def f(z, w):\n"
        "    return float(z), complex(z), math.sqrt(z), math.log2(z), math.exp(z),"
        " math.pow(z, 2), w.to_complex(), math.isqrt(z), math.floor(z)\n"
        "def g(z):\n"
        "    return math.log(z)\n"
    )
    assert float_calls(path, {"g"}) == [
        f"m.py:3 {name}"
        for name in (
            "float", "complex", "math.sqrt", "math.log2", "math.exp", "math.pow", ".to_complex"
        )
    ]


def test_import_loads_no_numpy():
    # nor statistics: each command is a fresh process that pays for its import
    code = "import sys, quadcantor; print('numpy' in sys.modules or 'statistics' in sys.modules)"
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


# the records that stay dataclasses, each for what a named tuple cannot do;
# every other value record is a NamedTuple, whose class costs no generated code
DATACLASS_RECORDS = {
    "IFSSpec",  # holds cached_property caches and must stay weak-referenceable
    "IdealHNF",  # validates its Hermite form in the constructor
    "IntersectionPoint",  # copied with dataclasses.replace by callers
    "IntersectionReport",  # likewise
}


def test_only_the_listed_records_are_dataclasses():
    found = set()
    for path in Path(qc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                f = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(f, "attr", getattr(f, "id", None)) == "dataclass":
                    found.add(node.name)
    assert found == DATACLASS_RECORDS


def record_samples() -> list:
    """One library-made instance of every exported record class."""
    field = qc.make_field(-1)
    spec = qc.ifs_new(field.element(3), [field.element(0), field.element(2)])
    report = qc.full_intersection(field.element(2), spec, mode="certified", cap=10**4)
    fact = report.preconditions.alpha_factorization
    lb = report.lower_bound
    return [
        field,
        spec,
        qc.cns_basis(2),
        qc.covering_constants(spec),
        qc.box_dim_estimate(spec, [2, 3]),
        fact,
        fact.primes[0],
        fact.primes[0].hnf,
        qc.factor_rational_prime(field, 5),
        report.preconditions,
        lb,
        lb.stabilizations[0],
        report,
        report.points[-1],
        report.points[-1].coding,
    ]


def test_record_samples_cover_every_exported_record():
    exported = {
        v for v in vars(qc).values()
        if isinstance(v, type) and (hasattr(v, "_fields") or dataclasses.is_dataclass(v))
    }
    assert {type(r) for r in record_samples()} == exported


@pytest.mark.parametrize("record", record_samples(), ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    if dataclasses.is_dataclass(record):
        names = [f.name for f in dataclasses.fields(record) if f.init]
    else:
        names = record._fields
    values = {name: getattr(record, name) for name in names}
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    twin = cls(**values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    if cls is qc.FieldSpec:
        assert repr(record) == "FieldSpec(d=-1)"
    else:
        shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(record) == f"{cls.__name__}({shown})"
