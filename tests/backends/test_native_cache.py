"""Injected faults in the native module cache (``$REVEAL_NATIVE_CACHE``).

A truncated or garbage file under a cached module's name must be
rebuilt, not loaded and not left to demote the compiled engine or the
native backend for every later process.  Both module families are
covered: the RV32IM core (``_reveal_cpu_*``) and the numeric backend
(``_reveal_native_*``).
"""

import os

import pytest

from repro.backends import native
from repro.riscv import compiled as compiled_mod

pytest.importorskip("cffi")


def _build_core():
    compiled_mod._CORE["module"] = None
    return compiled_mod._core()


def _build_native():
    return native._compile_and_load()[0]


#: family -> (builder, one function its module must export)
FAMILIES = {
    "cpu": (_build_core, "reveal_run"),
    "native": (_build_native, "reveal_ntt_forward"),
}


def _corrupt(kind: str, good: bytes) -> bytes:
    """Half of a good module (a cut-short copy) or 70 random bytes."""
    if kind == "truncated":
        return good[: len(good) // 2]
    return os.urandom(70)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One good build per family, in a private cache: ``{family: (name, bytes)}``."""
    saved_env = os.environ.get("REVEAL_NATIVE_CACHE")
    saved_core = compiled_mod._CORE["module"]
    result = {}
    try:
        for family, (build, _symbol) in FAMILIES.items():
            cache = tmp_path_factory.mktemp(f"good-{family}")
            os.environ["REVEAL_NATIVE_CACHE"] = str(cache)
            try:
                build()
            except compiled_mod._toolchain_errors() as exc:  # pragma: no cover
                pytest.skip(f"cannot build the {family} module here: {exc}")
            (name,) = os.listdir(cache)
            with open(cache / name, "rb") as fh:
                result[family] = (name, fh.read())
    finally:
        if saved_env is None:
            os.environ.pop("REVEAL_NATIVE_CACHE", None)
        else:
            os.environ["REVEAL_NATIVE_CACHE"] = saved_env
        compiled_mod._CORE["module"] = saved_core
    return result


@pytest.mark.parametrize("kind", ["truncated", "garbage"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corrupt_cached_module_is_rebuilt(built, family, kind, tmp_path, monkeypatch):
    name, good = built[family]
    corrupt = _corrupt(kind, good)
    (tmp_path / name).write_bytes(corrupt)
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setitem(compiled_mod._CORE, "module", None)
    build, symbol = FAMILIES[family]
    module = build()
    assert hasattr(module.lib, symbol)
    assert os.listdir(tmp_path) == [name]  # rebuilt in place, nothing left over
    assert os.path.getsize(tmp_path / name) > len(corrupt)


@pytest.mark.usefixtures("built")  # skips where no C toolchain builds
def test_second_load_failure_propagates(tmp_path, monkeypatch):
    """A freshly built module that still does not load is an error."""
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(tmp_path))
    loads = []

    def failing_load(modname, path):
        loads.append(path)
        raise ImportError(f"cannot load {path}")

    monkeypatch.setattr(native, "_load_extension", failing_load)
    name = "_reveal_test_reload"
    suffix = native.sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    (tmp_path / (name + suffix)).write_bytes(b"garbage")
    with pytest.raises(ImportError, match="cannot load"):
        native.build_extension(
            name, "int reveal_one(void);", "int reveal_one(void) { return 1; }", ("-O0",)
        )
    assert len(loads) == 2
