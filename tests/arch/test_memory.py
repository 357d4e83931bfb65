"""Unit tests for the flat memory model."""

import pytest

from repro.arch import Memory, MisalignedAccessError


class TestWordAccess:
    def test_default_zero(self):
        mem = Memory()
        assert mem.load_word(0x1000) == 0

    def test_store_load(self):
        mem = Memory()
        mem.store_word(0x1000, 1234)
        assert mem.load_word(0x1000) == 1234

    def test_store_negative_roundtrips_signed(self):
        mem = Memory()
        mem.store_word(0x1000, -5)
        assert mem.load_word(0x1000) == -5

    def test_store_truncates_to_32_bits(self):
        mem = Memory()
        mem.store_word(0x1000, 2**32 + 9)
        assert mem.load_word(0x1000) == 9

    def test_misaligned_rejected(self):
        mem = Memory()
        with pytest.raises(MisalignedAccessError):
            mem.load_word(0x1001)
        with pytest.raises(MisalignedAccessError):
            mem.store_word(0x1002, 1)

    def test_adjacent_words_independent(self):
        mem = Memory()
        mem.store_word(0x1000, 1)
        mem.store_word(0x1004, 2)
        assert mem.load_word(0x1000) == 1
        assert mem.load_word(0x1004) == 2

    def test_initial_image(self):
        mem = Memory({0x2000: 7, 0x2004: -1})
        assert mem.load_word(0x2000) == 7
        assert mem.load_word(0x2004) == -1

    def test_initial_image_is_masked_without_store_word(self, monkeypatch):
        def no_store(self, addr, value):
            raise AssertionError("the image is built in one pass")

        monkeypatch.setattr(Memory, "store_word", no_store)
        mem = Memory({0x2000: -1, 0x2004: 1 << 33 | 5})
        assert dict(mem.words()) == {0x2000: 0xFFFFFFFF, 0x2004: 5}

    @pytest.mark.parametrize("addr", [0x2001, 0x2002, 0x2003])
    def test_misaligned_image_address_rejected(self, addr):
        with pytest.raises(MisalignedAccessError):
            Memory({0x2000: 1, addr: 2})

    def test_of_words_copies(self):
        words = {0x1000: 0, 0x1004: 0xFFFFFFFF}
        mem = Memory.of_words(words)
        assert mem.load_word(0x1004) == -1
        mem.store_word(0x1000, 3)
        assert words == {0x1000: 0, 0x1004: 0xFFFFFFFF}
        assert dict(mem.words()) == {0x1000: 3, 0x1004: 0xFFFFFFFF}


class TestByteAccess:
    def test_little_endian_bytes(self):
        mem = Memory()
        mem.store_word(0x1000, 0x04030201)
        assert mem.load_byte(0x1000) == 0x01
        assert mem.load_byte(0x1003) == 0x04

    def test_signed_byte_extension(self):
        mem = Memory()
        mem.store_byte(0x1000, 0x80)
        assert mem.load_byte(0x1000, signed=True) == -128
        assert mem.load_byte(0x1000, signed=False) == 128

    def test_store_byte_preserves_neighbours(self):
        mem = Memory()
        mem.store_word(0x1000, 0x44332211)
        mem.store_byte(0x1001, 0xAA)
        assert mem.load_word(0x1000) & 0xFFFFFFFF == 0x4433AA11

    def test_store_byte_masks_value(self):
        mem = Memory()
        mem.store_byte(0x1000, 0x1FF)
        assert mem.load_byte(0x1000, signed=False) == 0xFF


class TestFloatAccess:
    def test_float_roundtrip_float32_exact(self):
        mem = Memory()
        mem.store_float(0x1000, 1.5)
        assert mem.load_float(0x1000) == 1.5

    def test_float_overflow_becomes_inf(self):
        mem = Memory()
        mem.store_float(0x1000, 1e300)
        assert mem.load_float(0x1000) == float("inf")

    def test_float_shares_word_storage(self):
        mem = Memory()
        mem.store_float(0x1000, 1.0)
        assert mem.load_word(0x1000) == 0x3F800000


class TestIntrospection:
    def test_snapshot_excludes_zero_words(self):
        mem = Memory()
        mem.store_word(0x1000, 5)
        mem.store_word(0x1004, 0)
        assert mem.snapshot() == {0x1000: 5}

    def test_copy_is_independent(self):
        mem = Memory()
        mem.store_word(0x1000, 5)
        clone = mem.copy()
        clone.store_word(0x1000, 9)
        assert mem.load_word(0x1000) == 5

    def test_equality_ignores_explicit_zeros(self):
        a = Memory()
        b = Memory()
        a.store_word(0x1000, 0)
        assert a == b

    def test_len_counts_touched_words(self):
        mem = Memory()
        mem.store_word(0x1000, 1)
        mem.store_word(0x1004, 2)
        assert len(mem) == 2
