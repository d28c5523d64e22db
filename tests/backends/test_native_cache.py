"""Injected faults in the native module cache (``$REVEAL_NATIVE_CACHE``).

A truncated or garbage file under the cached module's name must be
rebuilt, not loaded and not left to demote the native backend and the
compiled engine for every later process.  The one ``_reveal_native_*``
module carries both, and both of its users are covered: the RV32IM core
(the compiled engine, whose rebuilt core must retire an ``ebreak``) and
the numeric backend (whose rebuilt kernels must be exported).
"""

import os

import pytest

from repro.backends import native, probe_backend, probe_error
from repro.riscv import compiled as compiled_mod

pytest.importorskip("cffi")


def _build_core():
    module = native._compile_and_load()[0]
    compiled_mod.check_core(module)
    return module


def _build_native():
    return native.build_backend().module


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
    """One good build in a private cache: ``(name, bytes)``."""
    if probe_backend("native") is None:
        pytest.skip(f"cannot build the native module here: {probe_error('native')}")
    saved_env = os.environ.get("REVEAL_NATIVE_CACHE")
    cache = tmp_path_factory.mktemp("good")
    os.environ["REVEAL_NATIVE_CACHE"] = str(cache)
    try:
        native._compile_and_load()
    finally:
        if saved_env is None:
            os.environ.pop("REVEAL_NATIVE_CACHE", None)
        else:
            os.environ["REVEAL_NATIVE_CACHE"] = saved_env
    (name,) = os.listdir(cache)
    with open(cache / name, "rb") as fh:
        return name, fh.read()


@pytest.mark.parametrize("kind", ["truncated", "garbage"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corrupt_cached_module_is_rebuilt(built, family, kind, tmp_path, monkeypatch):
    name, good = built
    corrupt = _corrupt(kind, good)
    (tmp_path / name).write_bytes(corrupt)
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(tmp_path))
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


@pytest.mark.usefixtures("built")  # skips where no C toolchain builds
def test_fresh_build_prunes_older_versions(tmp_path, monkeypatch):
    """Two source versions built into one cache leave one module; a
    reuse prunes nothing, and other families are left alone."""
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(tmp_path))
    suffix = native.sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    (tmp_path / "_reveal_cpu_0123456789ab.so").write_bytes(b"other family")
    cdef = "int reveal_one(void);"
    for version in (1, 2):
        module = native.build_extension(
            f"_reveal_native_test{version}", cdef,
            f"int reveal_one(void) {{ return {version}; }}", ("-O0",),
        )
        assert module.lib.reveal_one() == version
    assert sorted(os.listdir(tmp_path)) == [
        "_reveal_cpu_0123456789ab.so", "_reveal_native_test2" + suffix
    ]
    (tmp_path / ("_reveal_native_test1" + suffix)).write_bytes(b"stale")
    native.build_extension(
        "_reveal_native_test2", cdef, "int reveal_one(void) { return 2; }", ("-O0",)
    )
    assert (tmp_path / ("_reveal_native_test1" + suffix)).exists()
