"""The native noise kernels against their numpy twins, bit for bit.

``add_noise`` computes ``samples * gain + z * std`` over a range of the
keyed noise stream of :mod:`repro.power.noise` in one pass, with
Philox4x64-10 and numpy's ziggurat fast path in C and numpy's own
sampler for every other draw.  ``add_normal`` does the same with the
next normals of a caller's numpy ``Generator``, drawn through its
``bitgen_t``, and must leave the generator where numpy would.  Every
comparison here is on raw bits, so the sign of a zero and a NaN's
payload count.
"""

import pickle

import numpy as np
import pytest

from repro import backends
from repro.attack.pipeline import SingleTraceAttack
from repro.backends import native, probe_backend, use_backend
from repro.power import noise
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

BLOCK = noise.NOISE_BLOCK

requires_kernel = pytest.mark.skipif(
    probe_backend("native") is None
    or "add_noise" not in probe_backend("native").kernels,
    reason="no C toolchain or no libnpyrandom.a",
)


@pytest.fixture(scope="module")
def kernel():
    return probe_backend("native").kernels["add_noise"]


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _twin(samples, entropy, seed, std, offset=0, gain=1.0):
    """The numpy path: ``out *= gain`` then ``out += noise * std``."""
    out = samples.copy()
    out *= gain
    out += noise.standard_noise(entropy, seed, out.size, offset) * std
    return out


def _native(kernel, samples, entropy, seed, std, offset=0, gain=1.0):
    key = noise.stream_key(entropy, seed)
    return kernel(samples.copy(), None, key, offset, gain, std)


@requires_kernel
@pytest.mark.parametrize("case", range(60))
def test_random_ranges_match_numpy(kernel, case):
    rng = np.random.default_rng(case)
    entropy = int(rng.integers(0, 1 << 63))
    seed = int(rng.integers(0, 1 << 40))
    count = int(rng.integers(0, 60_000))
    offset = int(rng.integers(0, 50_000))
    std = float(rng.choice([0.37, 1.0, 2.5]))
    gain = float(rng.choice([1.0, 0.8, -2.0]))
    samples = rng.normal(0.0, 3.0, count)
    got = _native(kernel, samples, entropy, seed, std, offset, gain)
    assert _bits(got) == _bits(_twin(samples, entropy, seed, std, offset, gain))


@requires_kernel
@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("offset", [0, 1, BLOCK - 1, BLOCK, 5 * BLOCK + 7])
def test_counts_zero_and_one(kernel, count, offset):
    samples = np.full(count, 2.0)
    got = _native(kernel, samples, 11, 4, 1.0, offset)
    assert got.shape == (count,)
    assert _bits(got) == _bits(_twin(samples, 11, 4, 1.0, offset))


@requires_kernel
@pytest.mark.parametrize(
    "offset, count",
    [
        (0, BLOCK),  # exactly one block
        (BLOCK - 10, 10),  # ends exactly on a boundary
        (BLOCK - 10, 11),  # one sample into the next block
        (BLOCK, BLOCK),  # starts on one boundary, ends on the next
        (BLOCK - 1, 2 * BLOCK + 2),  # straddles two boundaries
        (3 * BLOCK + 100, BLOCK - 100),  # mid-block to the boundary
    ],
)
def test_block_boundaries(kernel, offset, count):
    samples = np.linspace(-5.0, 5.0, count)
    got = _native(kernel, samples, 2026, 8, 0.5, offset, 1.5)
    assert _bits(got) == _bits(_twin(samples, 2026, 8, 0.5, offset, 1.5))


@requires_kernel
def test_partitioned_ranges_equal_one_shot(kernel):
    samples = np.zeros(3 * BLOCK)
    whole = _native(kernel, samples, 5, 6, 1.0)
    parts = [
        _native(kernel, samples[lo:hi], 5, 6, 1.0, lo)
        for lo, hi in ((0, 7), (7, BLOCK + 3), (BLOCK + 3, 3 * BLOCK))
    ]
    assert _bits(whole) == _bits(np.concatenate(parts))


@requires_kernel
def test_zero_std_and_gain(kernel):
    samples = np.random.default_rng(3).normal(0.0, 1.0, 5000)
    samples[::7] = -0.0
    # The kernel's own formula at std 0: the zero draws are added.
    got = _native(kernel, samples, 1, 2, 0.0, 0, 2.5)
    assert _bits(got) == _bits(_twin(samples, 1, 2, 0.0, 0, 2.5))
    # The scope never calls it at std 0: the output is the gain alone.
    scope = Oscilloscope(noise_std=0.0, gain=2.5)
    native_out = scope.capture_keyed(samples.copy(), 1, 2)
    assert _bits(native_out) == _bits(samples * 2.5)


@requires_kernel
@pytest.mark.parametrize("gain", [1.0, -0.25])
def test_special_samples(kernel, gain):
    samples = np.random.default_rng(9).normal(0.0, 1.0, 2 * BLOCK)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -np.nan]
    for i, value in enumerate(specials):
        samples[i * 977 :: 4099] = value
    got = _native(kernel, samples, 77, 1, 1.0, 3, gain)
    assert _bits(got) == _bits(_twin(samples, 77, 1, 1.0, 3, gain))


def _slow_draws(key: np.ndarray, count: int):
    """How many of the first ``count`` normals of ``Generator(Philox(key))``
    left numpy's ziggurat fast path, as ``(tail, wedge)``: a normal that
    reads more than one raw word went through the slow path, and its
    first word's low byte names the tail (index 0) or a wedge."""
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    raw = np.random.Philox(key=key).random_raw(2 * count + 64)

    def words_read():
        state = bits.state
        return int(state["state"]["counter"][0]) * 4 - 4 + state["buffer_pos"]

    tail = wedge = 0
    before = words_read()
    for _ in range(count):
        gen.standard_normal()
        after = words_read()
        if after - before > 1:
            if int(raw[before]) & 0xFF == 0:
                tail += 1
            else:
                wedge += 1
        before = after
    return tail, wedge


@requires_kernel
def test_tail_and_wedge_draws(kernel):
    entropy, seed = 31337, 12
    base = noise.stream_key(entropy, seed)
    tail = wedge = 0
    for block in range(2):
        key = base.copy()
        key[1] ^= np.uint64(block)
        t, w = _slow_draws(key, BLOCK)
        tail, wedge = tail + t, wedge + w
    assert tail >= 1 and wedge >= 100
    samples = np.zeros(2 * BLOCK)
    for offset, count in ((0, 2 * BLOCK), (1234, 2 * BLOCK - 1234)):
        got = _native(kernel, samples[:count], entropy, seed, 1.3, offset, 0.7)
        want = _twin(samples[:count], entropy, seed, 1.3, offset, 0.7)
        assert _bits(got) == _bits(want)


@requires_kernel
def test_in_place_and_into_out(kernel):
    samples = np.random.default_rng(4).normal(0.0, 1.0, 3000)
    key = noise.stream_key(8, 9)
    want = _twin(samples, 8, 9, 1.0, 0, 2.0)
    same = samples.copy()
    assert kernel(same, same, key, 0, 2.0, 1.0) is same
    out = np.empty_like(samples)
    assert kernel(samples, out, key, 0, 2.0, 1.0) is out
    assert _bits(same) == _bits(out) == _bits(want)


@requires_kernel
def test_declines_what_numpy_must_run(kernel):
    key = noise.stream_key(1, 1)
    x = np.ones(64)
    assert kernel(x.astype(np.float32), None, key, 0, 1.0, 1.0) is None
    assert kernel(x[::2], None, key, 0, 1.0, 1.0) is None
    assert kernel(x, None, key, 0, float("nan"), 1.0) is None
    assert kernel(x, None, key, 0, 1.0, float("inf")) is None
    assert kernel(x[1:], x[:-1], key, 0, 1.0, 1.0) is None  # partial overlap
    frozen = np.ones(64)
    frozen.flags.writeable = False
    assert kernel(frozen, frozen, key, 0, 1.0, 1.0) is None
    assert kernel(x, None, key, -1, 1.0, 1.0) is None
    assert kernel(x, None, key, np.int64(3), 1.0, 1.0) is None
    with pytest.raises(ValueError, match="non-negative"):
        noise.add_noise(x.copy(), 1, 1, 1.0, offset=-1)


@requires_kernel
def test_scope_matches_reference_backend_outside_the_kernel_domain():
    samples = np.arange(300, dtype=np.float32)
    for scope in (
        Oscilloscope(noise_std=1.0, gain=3.0),
        Oscilloscope(noise_std=0.5, gain=2.0, bandwidth_window=5),
        Oscilloscope(noise_std=0.5, adc_bits=8),
    ):
        native_out = scope.capture_keyed(samples, 4, 5)
        with use_backend("reference"):
            reference_out = scope.capture_keyed(samples, 4, 5)
        assert _bits(native_out) == _bits(reference_out)


# ----------------------------------------------------------------------
# When the kernel declines to exist
# ----------------------------------------------------------------------
def _capture():
    """Keyed batch captures, then sequential ones from the bench's rng."""
    bench = TraceAcquisition(
        GaussianSamplerDevice((0xFFEE001, 0xFFC4001)),
        scope=Oscilloscope(noise_std=1.0, gain=1.5),
        rng=17,
    )
    keyed = [c.trace.samples for c in bench.capture_batch(3, 4, first_seed=50)]
    serial = [bench.capture(60 + i, 4).trace.samples for i in range(3)]
    return keyed + serial + [bench._rng.bit_generator.random_raw(4).view(np.float64)]


def _with_native(monkeypatch, factory):
    """Make ``factory`` the native backend and select it."""
    monkeypatch.setitem(backends._FACTORIES, "native", factory)
    for name in ("_PROBED", "_PROBE_ERRORS"):
        kept = {k: v for k, v in getattr(backends, name).items() if k != "native"}
        monkeypatch.setattr(backends, name, kept)
    monkeypatch.setattr(backends, "_ACTIVE", None)
    return backends.get_backend()


class _FailingProbe:
    """A built module whose table probe reports failure."""

    def __init__(self, module):
        self.ffi = module.ffi
        self.lib = _FailingLib(module.lib)


class _FailingLib:
    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    @staticmethod
    def reveal_noise_init():
        return -1


def _assert_kernel_absent_backend_up(backend, expected):
    assert backend.name == "native"
    assert "add_noise" not in backend.kernels
    assert "add_normal" not in backend.kernels
    assert {"segment", "expand_events", "ntt_forward"} <= set(backend.kernels)
    got = _capture()
    assert [_bits(x) for x in got] == [_bits(x) for x in expected]


@requires_kernel
def test_failed_probe_leaves_the_kernel_absent(monkeypatch):
    expected = _capture()
    module, digest = native._compile_and_load()
    monkeypatch.setattr(
        native, "_compile_and_load", lambda: (_FailingProbe(module), digest)
    )
    assert native._noise_kernel(_FailingProbe(module)) is None
    backend = _with_native(monkeypatch, native.build_backend)
    _assert_kernel_absent_backend_up(backend, expected)


@pytest.fixture(scope="module")
def archive_free_cache(tmp_path_factory):
    """One cache for the builds without numpy's archive, so the module
    built without it is compiled once for both tests below."""
    return tmp_path_factory.mktemp("archive-free")


@requires_kernel
def test_missing_archive_leaves_the_kernel_absent(monkeypatch, archive_free_cache):
    expected = _capture()
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(archive_free_cache))
    monkeypatch.setattr(native, "_npyrandom", lambda: None)
    backend = _with_native(monkeypatch, native.build_backend)
    assert backend.module.lib.reveal_noise_init() == -1
    _assert_kernel_absent_backend_up(backend, expected)


@requires_kernel
def test_archive_that_does_not_link_leaves_the_kernel_absent(
    monkeypatch, tmp_path, archive_free_cache
):
    expected = _capture()
    garbage = tmp_path / "libnpyrandom.a"
    garbage.write_bytes(b"not an archive")
    monkeypatch.setenv("REVEAL_NATIVE_CACHE", str(archive_free_cache))
    monkeypatch.setattr(native, "_npyrandom", lambda: garbage)
    backend = _with_native(monkeypatch, native.build_backend)
    assert backend.module.lib.reveal_noise_init() == -1
    _assert_kernel_absent_backend_up(backend, expected)
    assert len(list(archive_free_cache.glob("_reveal_native_*"))) == 1


# ----------------------------------------------------------------------
# The sequential-stream kernel: the caller's own Generator
# ----------------------------------------------------------------------
requires_normal = pytest.mark.skipif(
    probe_backend("native") is None
    or "add_normal" not in probe_backend("native").kernels,
    reason="no C toolchain or no libnpyrandom.a",
)

BIT_GENERATORS = {
    "default_rng": lambda seed: np.random.default_rng(seed),
    "Philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
    "MT19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "SFC64": lambda seed: np.random.Generator(np.random.SFC64(seed)),
    "PCG64DXSM": lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
}


@pytest.fixture(scope="module")
def normal_kernel():
    return probe_backend("native").kernels["add_normal"]


def _pair(kind, seed):
    """Two generators of one kind in one state."""
    return BIT_GENERATORS[kind](seed), BIT_GENERATORS[kind](seed)


def _state(gen) -> list:
    """The generator's whole state, arrays as bytes, in a comparable form."""

    def flat(value):
        if isinstance(value, dict):
            return [(key, flat(item)) for key, item in value.items()]
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return value

    return flat(gen.bit_generator.state)


def _assert_same_generator(mine, theirs):
    assert _state(mine) == _state(theirs)
    assert _bits(mine.bit_generator.random_raw(6).view(np.float64)) == _bits(
        theirs.bit_generator.random_raw(6).view(np.float64)
    )


def _seq_twin(samples, gen, std, gain=1.0):
    """The numpy path of ``Oscilloscope.capture``: ``out *= gain``, then
    ``out += gen.normal(0.0, std, out.shape)``."""
    out = samples.copy()
    out *= gain
    out += gen.normal(0.0, std, out.shape)
    return out


def _check_seq(normal_kernel, samples, kind, seed, std, gain=1.0):
    mine, theirs = _pair(kind, seed)
    got = normal_kernel(samples.copy(), None, mine, gain, std)
    assert _bits(got) == _bits(_seq_twin(samples, theirs, std, gain))
    _assert_same_generator(mine, theirs)


@requires_normal
@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
@pytest.mark.parametrize("case", range(12))
def test_sequential_random_lengths_match_numpy(normal_kernel, kind, case):
    rng = np.random.default_rng(1000 + case)
    count = int(rng.integers(0, 60_000))
    std = float(rng.choice([0.37, 1.0, 2.5]))
    gain = float(rng.choice([1.0, 0.7, -2.0]))
    samples = rng.normal(0.0, 3.0, count)
    _check_seq(normal_kernel, samples, kind, int(rng.integers(0, 1 << 40)),
               std, gain)


@requires_normal
@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
@pytest.mark.parametrize("count", [0, 1])
def test_sequential_counts_zero_and_one(normal_kernel, kind, count):
    _check_seq(normal_kernel, np.full(count, 2.0), kind, 5, 1.0, 0.7)


@requires_normal
@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
@pytest.mark.parametrize("gain", [1.0, -0.25])
def test_sequential_special_samples(normal_kernel, kind, gain):
    samples = np.random.default_rng(9).normal(0.0, 1.0, 20_000)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -np.nan]
    for i, value in enumerate(specials):
        samples[i * 977 :: 4099] = value
    _check_seq(normal_kernel, samples, kind, 77, 1.0, gain)


@requires_normal
def test_sequential_zero_sum_keeps_numpy_sign(normal_kernel):
    # -0.0 inputs and a zero std: numpy adds 0.0 + 0.0 * z, never -0.0
    samples = np.full(5000, -0.0)
    _check_seq(normal_kernel, samples, "default_rng", 3, 0.0, 1.0)
    mine, _ = _pair("default_rng", 3)
    got = normal_kernel(samples.copy(), None, mine, 1.0, 0.0)
    assert not np.signbit(got).any()


@requires_normal
@pytest.mark.parametrize("gain", [1.0, -1.0])
def test_sequential_negative_zero_draw(gain):
    # a -0.0 normal over a sample that is -0.0 after the gain: numpy's
    # 0.0 + std * z makes the sum 0.0, where std * z alone keeps -0.0
    from repro.verify.backend_oracles import planted_mt19937

    assert np.signbit(np.random.Generator(planted_mt19937(1)).standard_normal())
    samples = np.full(3, -0.0 if gain > 0 else 0.0)
    scope = Oscilloscope(noise_std=1.5, gain=gain)
    mine = np.random.Generator(planted_mt19937(1))
    theirs = np.random.Generator(planted_mt19937(1))
    got = scope.capture(samples, rng=mine)
    with use_backend("reference"):
        want = scope.capture(samples, rng=theirs)
    assert _bits(got) == _bits(want)
    assert not np.signbit(got[0])
    _assert_same_generator(mine, theirs)


@requires_normal
@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
def test_sequential_in_place_and_into_out(normal_kernel, kind):
    samples = np.random.default_rng(4).normal(0.0, 1.0, 3000)
    want = _seq_twin(samples, BIT_GENERATORS[kind](8), 1.0, 2.0)
    same = samples.copy()
    assert normal_kernel(same, same, BIT_GENERATORS[kind](8), 2.0, 1.0) is same
    out = np.empty_like(samples)
    assert normal_kernel(samples, out, BIT_GENERATORS[kind](8), 2.0, 1.0) is out
    assert _bits(same) == _bits(out) == _bits(want)


def _words(gen, count: int) -> np.ndarray:
    """The next ``count`` 64-bit words ``next_uint64`` of ``gen`` returns:
    MT19937's raw words are 32 bits, high half first."""
    if isinstance(gen.bit_generator, np.random.MT19937):
        raw = gen.bit_generator.random_raw(2 * count).astype(np.uint64)
        return (raw[0::2] << np.uint64(32)) | raw[1::2]
    return gen.bit_generator.random_raw(count).astype(np.uint64)


def _seq_slow_draws(kind, seed, count, enough=(1, 100)):
    """``(tail, wedge)``: how many of the first ``count`` normals of a
    fresh generator left numpy's fast path, found by numpy's own calls
    (stopping once both reach ``enough``): a normal after which the
    generator is not one word on is slow, and its first word's low byte
    names the tail (index 0) or a wedge."""
    gen, words = _pair(kind, seed)
    tail = wedge = 0
    for _ in range(count):
        gen.standard_normal()
        first = int(_words(words, 1)[0])
        if _state(gen) == _state(words):
            continue
        if first & 0xFF == 0:
            tail += 1
        else:
            wedge += 1
        if tail >= enough[0] and wedge >= enough[1]:
            break
        while _state(words) != _state(gen):
            words.bit_generator.random_raw(1)
    return tail, wedge


@requires_normal
@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
def test_sequential_tail_and_wedge_draws(normal_kernel, kind):
    count = 20_000
    tail, wedge = _seq_slow_draws(kind, 7, count)
    assert tail >= 1 and wedge >= 100
    samples = np.zeros(count)
    _check_seq(normal_kernel, samples, kind, 7, 1.3, 0.7)


@requires_normal
@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
def test_sequential_interleaved_with_numpy_draws(normal_kernel, kind):
    mine, theirs = _pair(kind, 31)
    samples = np.random.default_rng(5).normal(0.0, 1.0, 7000)
    for step in range(4):
        got = normal_kernel(samples.copy(), None, mine, 1.5, 0.8)
        assert _bits(got) == _bits(_seq_twin(samples, theirs, 0.8, 1.5))
        # numpy's own draws in between: 32-bit words (buffered halves on
        # 64-bit generators), doubles and normals
        for gen in (mine, theirs):
            gen.integers(0, 1000, size=step + 1, dtype=np.uint32)
            gen.random(3)
            gen.standard_normal(step)
        _assert_same_generator(mine, theirs)


@requires_normal
def test_sequential_declines_what_numpy_must_run(normal_kernel):
    gen = np.random.default_rng(1)
    before = _state(gen)
    x = np.ones(64)
    assert normal_kernel(x.astype(np.float32), None, gen, 1.0, 1.0) is None
    assert normal_kernel(x[::2], None, gen, 1.0, 1.0) is None
    assert normal_kernel(np.ones((8, 8)), None, gen, 1.0, 1.0) is None
    assert normal_kernel(x, None, gen, float("nan"), 1.0) is None
    assert normal_kernel(x, None, gen, 1.0, float("inf")) is None
    assert normal_kernel(x, None, gen, 1.0, -1.0) is None
    assert normal_kernel(x, None, gen, 1.0, -0.0) is None
    assert normal_kernel(x[1:], x[:-1], gen, 1.0, 1.0) is None  # partial overlap
    frozen = np.ones(64)
    frozen.flags.writeable = False
    assert normal_kernel(frozen, frozen, gen, 1.0, 1.0) is None
    assert _state(gen) == before  # a decline draws nothing
    with pytest.raises(ValueError):
        gen.normal(0.0, -1.0, 4)
    with pytest.raises(ValueError):
        gen.normal(0.0, -0.0, 4)


@requires_normal
def test_scope_capture_matches_reference_backend_outside_the_kernel_domain():
    samples = np.arange(300, dtype=np.float32)
    for scope in (
        Oscilloscope(noise_std=1.0, gain=3.0),
        Oscilloscope(noise_std=0.5, gain=2.0, bandwidth_window=5),
        Oscilloscope(noise_std=0.5, adc_bits=8),
        Oscilloscope(noise_std=0.0, gain=2.0),
    ):
        for data in (samples, samples.astype(np.float64)):
            mine, theirs = _pair("default_rng", 6)
            native_out = scope.capture(data, rng=mine)
            with use_backend("reference"):
                reference_out = scope.capture(data, rng=theirs)
            assert _bits(native_out) == _bits(reference_out)
            _assert_same_generator(mine, theirs)


class _BrokenNormalLib(_FailingLib):
    """The real module, but the sequential kernel adds twice the noise."""

    def reveal_noise_init(self):
        return self._lib.reveal_noise_init()

    def reveal_add_normal(self, src, dst, n, bitgen, gain, std):
        return self._lib.reveal_add_normal(src, dst, n, bitgen, gain, 2 * std)


@requires_normal
def test_failed_stream_check_leaves_only_the_sequential_kernel_absent(monkeypatch):
    expected = _capture()
    module, digest = native._compile_and_load()
    broken = _FailingProbe(module)
    broken.lib = _BrokenNormalLib(module.lib)
    assert native._normal_kernel(broken) is None
    assert native._noise_kernel(broken) is not None
    monkeypatch.setattr(native, "_compile_and_load", lambda: (broken, digest))
    backend = _with_native(monkeypatch, native.build_backend)
    assert "add_normal" not in backend.kernels
    assert "add_noise" in backend.kernels
    got = _capture()
    assert [_bits(x) for x in got] == [_bits(x) for x in expected]


def _profiled(bench_seed):
    bench = TraceAcquisition(
        GaussianSamplerDevice((0xFFEE001, 0xFFC4001)),
        scope=Oscilloscope(noise_std=1.0),
        rng=bench_seed,
    )
    attack = SingleTraceAttack(bench, poi_count=12)
    report = attack.profile(num_traces=40, coeffs_per_trace=8, first_seed=9)
    captures = [bench.capture(500 + i, 8) for i in range(3)]
    return (
        pickle.dumps((attack.templates, attack.branch_classifier,
                      attack.refiner, report.slice_count, report.pois)),
        [(_bits(c.trace.samples), c.values) for c in captures],
        _state(bench._rng),
    )


@requires_normal
def test_serial_profile_and_captures_identical_without_the_kernel(monkeypatch):
    used = []

    def counted(name):
        kernel = backends.get_kernel(name)

        def run(*args):
            used.append(name)
            return kernel(*args)

        return run

    monkeypatch.setattr(noise, "get_kernel", counted)
    with_kernel = _profiled(44)
    assert used.count("add_normal") == 43  # 40 profiling + 3 captures
    monkeypatch.setattr(noise, "get_kernel", lambda name: None)
    assert _profiled(44) == with_kernel
