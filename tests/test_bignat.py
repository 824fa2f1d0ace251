"""Tests for the bit-interleaving pairing function."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godelgen.bignat import mingle, mingle_fold, unmingle, unmingle_fold

# Frozen reference table for a, b in [0, 4).  Bit 2k of the result is
# bit k of b; bit 2k+1 is bit k of a.
MINGLE_TABLE = {
    (0, 0): 0, (0, 1): 1, (0, 2): 4, (0, 3): 5,
    (1, 0): 2, (1, 1): 3, (1, 2): 6, (1, 3): 7,
    (2, 0): 8, (2, 1): 9, (2, 2): 12, (2, 3): 13,
    (3, 0): 10, (3, 1): 11, (3, 2): 14, (3, 3): 15,
}


def test_reference_table():
    for (a, b), want in MINGLE_TABLE.items():
        assert mingle(a, b) == want, (a, b)


def test_table_is_exhaustive_for_two_bits():
    # the 16 entries cover [0, 16) exactly once: a bijection on 2-bit inputs
    assert sorted(MINGLE_TABLE.values()) == list(range(16))


def naive_mingle(a: int, b: int) -> int:
    out = 0
    for k in range(max(a.bit_length(), b.bit_length())):
        out |= (b >> k & 1) << (2 * k)
        out |= (a >> k & 1) << (2 * k + 1)
    return out


def test_matches_naive_bit_loop_exhaustively():
    # every byte pair: each byte-table entry spreads an operand, and the
    # 16-bit results, all 65,536 of them, each read one entry to unmingle
    for a in range(256):
        for b in range(256):
            n = mingle(a, b)
            assert n == naive_mingle(a, b)
            assert unmingle(n) == (a, b)


# Widths on both sides of the switch from the shift loop to the byte-string
# path (64 operand bits), with odd byte lengths (65, 129 bits); hypothesis's
# default integers rarely get this wide.
WIDE_WIDTHS = [63, 64, 65, 127, 128, 129, 1024, 65536]


def operand(bits: int, salt: str) -> int:
    """A seeded natural of exactly this many bits."""
    return random.Random(f"{bits}:{salt}").getrandbits(bits) | 1 << (bits - 1)


@pytest.mark.parametrize("bits", WIDE_WIDTHS)
def test_wide_operands_match_naive_bit_loop(bits):
    a = operand(bits, "a")
    # an equal, a narrower (odd byte length) and a wider operand, and zero
    for b in (operand(bits, "b"), operand(bits // 2 + 3, "b"), operand(bits + 8, "b"), 0):
        want = naive_mingle(a, b)
        assert mingle(a, b) == want
        assert mingle_fold([a, b]) == want
        assert unmingle(want) == (a, b)
        assert unmingle_fold(want, 2) == [a, b]
    n = operand(bits, "n")
    x, y = unmingle(n)
    assert naive_mingle(x, y) == n
    assert unmingle_fold(n, 2) == [x, y]


@pytest.mark.parametrize("bits", [b for b in WIDE_WIDTHS if b <= 1024])
def test_wide_folds_of_three_match_naive_bit_loop(bits):
    codes = [operand(bits, "a"), operand(bits // 3 + 1, "b"), operand(bits - 2, "c")]
    want = naive_mingle(naive_mingle(codes[0], codes[1]), codes[2])
    assert mingle_fold(codes) == want
    assert unmingle_fold(want, 3) == codes


def test_round_trip_exhaustive_small():
    for a in range(64):
        for b in range(64):
            assert unmingle(mingle(a, b)) == (a, b)
    for n in range(4096):
        a, b = unmingle(n)
        assert mingle(a, b) == n


@given(st.integers(min_value=0), st.integers(min_value=0))
def test_round_trip_arbitrary(a, b):
    assert unmingle(mingle(a, b)) == (a, b)


@given(st.integers(min_value=0))
def test_unmingle_then_mingle(n):
    a, b = unmingle(n)
    assert mingle(a, b) == n


@given(st.integers(min_value=0, max_value=2**200), st.integers(min_value=0, max_value=2**200))
def test_growth(a, b):
    # the pairing never shrinks its arguments, strictly grows once the
    # result reaches 2 (this is what makes decoding well-founded)
    n = mingle(a, b)
    assert n >= a and n >= b
    if n >= 2:
        assert n > a or (a == n == 0)
        assert n > b or (b == n == 0)
        assert n > a and n > b


def test_growth_boundary_cases():
    assert mingle(0, 0) == 0
    assert mingle(0, 1) == 1  # result 1 equals its argument b
    assert mingle(1, 0) == 2 > 1


def test_fold_examples():
    assert mingle_fold([5]) == 5
    assert mingle_fold([2, 3]) == mingle(2, 3) == 13
    assert mingle_fold([0, 0, 1]) == 1
    assert mingle_fold([2, 3, 1]) == mingle(13, 1)


def test_unfold_examples():
    assert unmingle_fold(5, 1) == [5]
    assert unmingle_fold(13, 2) == [2, 3]
    assert unmingle_fold(1, 3) == [0, 0, 1]


@given(st.lists(st.integers(min_value=0, max_value=2**64), min_size=1, max_size=6))
def test_fold_round_trip(codes):
    assert unmingle_fold(mingle_fold(codes), len(codes)) == codes


@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=1, max_value=6))
def test_unfold_then_fold(n, k):
    assert mingle_fold(unmingle_fold(n, k)) == n


def test_large_values():
    a = 2**300 + 12345
    b = 3**200
    assert unmingle(mingle(a, b)) == (a, b)


def test_input_validation():
    with pytest.raises(ValueError):
        mingle(-1, 0)
    with pytest.raises(ValueError):
        unmingle(-3)
    with pytest.raises(TypeError):
        mingle(1.5, 0)
    with pytest.raises(ValueError):
        mingle_fold([])
    with pytest.raises(ValueError):
        unmingle_fold(5, 0)


def test_unfold_into_one_code_is_the_code_itself():
    for n in (0, 1, 5, 2**200):
        assert unmingle_fold(n, 1) == [n]
    with pytest.raises(TypeError, match="^n must be an int, got bool$"):
        unmingle_fold(True, 1)
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        unmingle_fold(-1, 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"^k must be a positive int, got {k}$"):
            unmingle_fold(5, k)


@pytest.mark.parametrize("codes, error, message", [
    ([0, -1], ValueError, "codes[1] must be nonnegative, got -1"),
    ([-1, "x"], ValueError, "codes[0] must be nonnegative, got -1"),
    ([True, 0], TypeError, "codes[0] must be an int, got bool"),
    ([0, 2**100, "1"], TypeError, "codes[2] must be an int, got str"),
    ([1, 1.0], TypeError, "codes[1] must be an int, got float"),
])
def test_fold_names_the_first_bad_code(codes, error, message):
    with pytest.raises(error) as info:
        mingle_fold(codes)
    assert str(info.value) == message


def test_fold_accepts_int_subclasses():
    class Code(int):
        pass

    assert mingle_fold([Code(2), 3]) == mingle_fold([2, Code(3)]) == 13
