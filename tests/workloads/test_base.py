"""Mini-app base infrastructure: quantization, serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.workloads.base import (
    _mantissa_mask,
    deserialize_state,
    quantize_mantissa,
    serialize_state,
    state_nbytes,
)


def reference_quantize(a, keep_bits):
    """The original per-call mask construction: the spec the cached mask keeps."""
    k = int(keep_bits)
    frac = keep_bits - k
    bits = a.ravel().view(np.uint64).copy()
    mask_lo = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(52 - k)
    if frac > 0 and k < 52:
        mask_hi = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(52 - (k + 1))
        idx = np.arange(bits.size)
        extra = (idx * 2654435761 % 2**32) < frac * 2**32
        bits[extra] &= mask_hi
        bits[~extra] &= mask_lo
    else:
        bits &= mask_lo
    return bits.view(np.float64).reshape(a.shape)


def random_bits(seed, shape):
    """float64 array of uniformly random bit patterns (NaNs, infs, subnormals)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False).view(np.float64)


KEEP_BITS = st.one_of(
    st.integers(0, 52),
    st.floats(0.0, 52.0, allow_nan=False),
    st.sampled_from([0, 0.0, 52, 52.0, 51.5, 0.5]),
)


class TestQuantize:
    def test_full_precision_is_identity(self, rng):
        a = rng.standard_normal(100)
        assert np.array_equal(quantize_mantissa(a, 52.0), a)

    def test_zero_bits_keeps_exponent_only(self, rng):
        a = rng.standard_normal(100) + 10.0
        q = quantize_mantissa(a, 0.0)
        # Mantissa cleared: each value becomes a power of two (its exponent).
        mantissas = q.view(np.uint64) & np.uint64((1 << 52) - 1)
        assert np.all(mantissas == 0)

    def test_monotone_error(self, rng):
        a = rng.standard_normal(1000)
        err4 = np.abs(quantize_mantissa(a, 4.0) - a).max()
        err20 = np.abs(quantize_mantissa(a, 20.0) - a).max()
        assert err20 <= err4

    def test_relative_error_bounded(self, rng):
        a = rng.standard_normal(1000) + 5.0
        q = quantize_mantissa(a, 10.0)
        rel = np.abs((q - a) / a)
        assert rel.max() < 2.0**-10 * 2  # keep 10 bits => rel err < 2^-10ish

    def test_fractional_bits_between_integers(self, rng):
        a = rng.standard_normal(5000)
        import zlib

        def factor(bits):
            return len(zlib.compress(quantize_mantissa(a, bits).tobytes(), 1))

        assert factor(4.0) <= factor(4.5) <= factor(5.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            quantize_mantissa(rng.standard_normal(4), 53.0)
        with pytest.raises(TypeError):
            quantize_mantissa(np.zeros(4, dtype=np.float32), 10.0)

    def test_preserves_shape(self, rng):
        a = rng.standard_normal((7, 8, 9))
        assert quantize_mantissa(a, 8.0).shape == (7, 8, 9)


class TestQuantizeMatchesReference:
    """The cached mask gives the original formula's bits on every input."""

    @given(n=st.integers(0, 5000), keep_bits=KEEP_BITS, seed=st.integers(0, 2**32 - 1))
    @example(n=0, keep_bits=12.5, seed=0)
    @example(n=5000, keep_bits=0, seed=1)
    @example(n=4999, keep_bits=52, seed=2)
    @example(n=3, keep_bits=51.999, seed=3)
    # frac * 2**32 equals element 1's stride value: the `<` boundary.
    @example(n=8, keep_bits=5 + 2654435761 / 2**32, seed=4)
    @settings(max_examples=150, deadline=None)
    def test_flat_sizes(self, n, keep_bits, seed):
        a = random_bits(seed, n)
        got = quantize_mantissa(a, keep_bits)
        assert np.array_equal(got.view(np.uint64), reference_quantize(a, keep_bits).view(np.uint64))

    @given(
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=12),
        view=st.sampled_from(["whole", "step", "transpose"]),
        keep_bits=KEEP_BITS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_shapes_and_views(self, shape, view, keep_bits, seed):
        a = random_bits(seed, shape)
        a = {"whole": a, "step": a[::2], "transpose": a.T}[view]
        got = quantize_mantissa(a, keep_bits)
        want = reference_quantize(a, keep_bits)
        assert got.shape == a.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_input_untouched(self, rng):
        a = rng.standard_normal((5, 6)).T
        before = a.copy()
        quantize_mantissa(a, 3.25)
        assert np.array_equal(a, before)


class TestMantissaMask:
    @pytest.mark.parametrize("keep_bits", [7, 7.5, 0.0, 52.0])
    def test_read_only(self, keep_bits):
        mask = _mantissa_mask(100, keep_bits)
        with pytest.raises(ValueError):
            mask[0] = 0

    def test_repeated_key_is_the_same_object(self):
        assert _mantissa_mask(1000, 9.25) is _mantissa_mask(1000, 9.25)

    def test_cache_is_bounded(self):
        maxsize = _mantissa_mask.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestSerialization:
    def test_round_trip_mixed_dtypes(self, rng):
        state = {
            "pos": rng.standard_normal((10, 3)),
            "types": rng.integers(0, 5, 10, dtype=np.int32),
            "flags": np.array([True, False, True]),
        }
        back = deserialize_state(serialize_state(state))
        assert set(back) == set(state)
        for k in state:
            assert np.array_equal(back[k], state[k])
            assert back[k].dtype == state[k].dtype

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_state(b"JUNK" + bytes(100))

    def test_state_nbytes(self, rng):
        state = {"a": np.zeros(100), "b": np.zeros(50, dtype=np.float32)}
        assert state_nbytes(state) == 100 * 8 + 50 * 4

    def test_empty_state(self):
        assert deserialize_state(serialize_state({})) == {}

    def test_non_contiguous_array_handled(self, rng):
        a = rng.standard_normal((10, 10))[::2, ::2]
        assert not a.flags.c_contiguous
        back = deserialize_state(serialize_state({"v": a}))
        assert np.array_equal(back["v"], a)

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float64, np.int32, np.uint8]),
            shape=hnp.array_shapes(max_dims=3, max_side=16),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_round_trip(self, arr):
        back = deserialize_state(serialize_state({"x": arr}))
        assert np.array_equal(back["x"], arr, equal_nan=True)
        assert back["x"].dtype == arr.dtype
        assert back["x"].shape == arr.shape
