"""Public-API hygiene: every documented export exists and imports."""

import importlib

import pytest

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
