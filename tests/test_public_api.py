"""Public-API hygiene: every documented export exists and imports, and
the package reads no environment variable beyond its fixed inventory."""

import ast
import importlib
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.attack",
    "repro.bfv",
    "repro.defenses",
    "repro.hints",
    "repro.lattice",
    "repro.power",
    "repro.ring",
    "repro.riscv",
    "repro.riscv.programs",
    "repro.utils",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_docstrings_on_public_modules():
    for name in PACKAGES:
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


SUBMODULES = [
    "repro.attack.branch",
    "repro.attack.cpa",
    "repro.attack.evaluation",
    "repro.attack.metrics",
    "repro.attack.persistence",
    "repro.attack.pipeline",
    "repro.attack.poi",
    "repro.attack.recovery",
    "repro.attack.search",
    "repro.attack.segmentation",
    "repro.attack.template",
    "repro.bfv.ciphertext",
    "repro.bfv.decryptor",
    "repro.bfv.device_encryptor",
    "repro.bfv.encoder",
    "repro.bfv.encryptor",
    "repro.bfv.evaluator",
    "repro.bfv.keygen",
    "repro.bfv.keys",
    "repro.bfv.noise",
    "repro.bfv.params",
    "repro.bfv.plaintext",
    "repro.bfv.sampler",
    "repro.bfv.serialization",
    "repro.defenses.ct_sampler",
    "repro.defenses.shuffling",
    "repro.hints.dbdd",
    "repro.hints.estimator",
    "repro.hints.hintgen",
    "repro.hints.security",
    "repro.lattice.bkz",
    "repro.lattice.embedding",
    "repro.lattice.enumeration",
    "repro.lattice.gsa",
    "repro.lattice.gso",
    "repro.lattice.hnf",
    "repro.lattice.lll",
    "repro.power.capture",
    "repro.power.leakage",
    "repro.power.scope",
    "repro.power.trace",
    "repro.reproduce",
    "repro.ring.exact",
    "repro.ring.galois",
    "repro.ring.modulus",
    "repro.ring.ntt",
    "repro.ring.poly",
    "repro.ring.primes",
    "repro.ring.rns",
    "repro.riscv.assembler",
    "repro.riscv.cpu",
    "repro.riscv.cycles",
    "repro.riscv.device",
    "repro.riscv.disasm",
    "repro.riscv.isa",
    "repro.riscv.memory",
    "repro.riscv.threaded",
    "repro.riscv.programs.gaussian",
    "repro.utils.bitops",
    "repro.utils.rng",
    "repro.utils.validation",
]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__) > 20, name


#: Every environment variable the package reads.  Both are deployment
#: settings, not speed choices: where the native module cache lives
#: (``repro.backends.native``) and the worker count of golden-fixture
#: regeneration (``repro.verify.goldens``).  Engines and backends are
#: chosen from the native probe alone, so no knob selects them.
ENVIRONMENT_KNOBS = {"REVEAL_NATIVE_CACHE", "REVEAL_WORKERS"}


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _environment_reads(tree):
    """``(name, line)`` per environment read in ``tree``: the literal
    variable name, or ``"<dynamic>"`` / ``"<unrecognized>"`` for a read
    this scan cannot name."""
    seen = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and _is_environ(func.value):
                seen.add(id(func.value))
                key = node.args[0] if node.args else None
            elif (isinstance(func, ast.Attribute) and func.attr == "getenv") or (
                isinstance(func, ast.Name) and func.id == "getenv"
            ):
                key = node.args[0] if node.args else None
            else:
                continue
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            seen.add(id(node.value))
            key = node.slice
        elif isinstance(node, ast.Compare) and any(
            _is_environ(c) for c in node.comparators
        ):
            seen.update(id(c) for c in node.comparators)
            key = node.left
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value, node.lineno
        else:
            yield "<dynamic>", node.lineno
    for node in ast.walk(tree):
        if _is_environ(node) and id(node) not in seen:
            yield "<unrecognized>", node.lineno


def test_environment_knob_inventory():
    root = Path(repro.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _environment_reads(tree):
            found.setdefault(name, []).append(f"{path.relative_to(root)}:{line}")
    assert set(found) == ENVIRONMENT_KNOBS, found
