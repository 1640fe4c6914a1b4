"""Tests for the hardware CRC-32 model."""

import zlib

from hypothesis import given, settings, strategies as st

from repro.hw.crc import crc32


def test_empty_is_zero():
    assert crc32(b"") == 0


def test_known_value_matches_zlib():
    data = b"The Nectar communication processor"
    assert crc32(data) == zlib.crc32(data)


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=150, deadline=None)
def test_matches_zlib_property(data):
    assert crc32(data) == zlib.crc32(data)


@given(st.binary(min_size=1, max_size=100), st.binary(min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_incremental_equals_whole(a, b):
    assert crc32(b, crc32(a)) == crc32(a + b)


@given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=7))
@settings(max_examples=100, deadline=None)
def test_single_bit_flip_detected(data, bit):
    corrupted = bytearray(data)
    corrupted[0] ^= 1 << bit
    assert crc32(bytes(corrupted)) != crc32(data)
