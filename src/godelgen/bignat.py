"""Bit-interleaving pairing on arbitrary-precision naturals.

``mingle(a, b)`` builds the number whose even-position bits come from ``b``
and whose odd-position bits come from ``a`` (bit 2k of the result is bit k
of ``b``, bit 2k+1 is bit k of ``a``).  It is a bijection N x N -> N, and
the fold variants extend it to fixed-length tuples.
"""

from __future__ import annotations

from collections.abc import Sequence

# Byte tables, built from nibble tables with bytes.translate and join: no
# Python loop runs more than 256 steps at import.  _SPREAD4[n] moves bit k
# of a nibble n to bit 2k; _SPREAD_LO[x] and _SPREAD_HI[x] spread the low
# and the high nibble of a byte x; _SPREAD[x] spreads all of x.
# _EVEN_LO[x] and _EVEN_HI[x] gather the even bits of a byte into the low
# and the high nibble.
_SPREAD4 = bytes([0, 1, 4, 5, 16, 17, 20, 21, 64, 65, 68, 69, 80, 81, 84, 85])
_SPREAD_LO = _SPREAD4 * 16
_SPREAD_HI = b"".join([bytes([s]) * 16 for s in _SPREAD4])
_SPREAD = [hi << 8 | lo for hi, lo in zip(_SPREAD_HI, _SPREAD_LO)]
_EVEN_LO = bytes([x & 1 | x >> 1 & 2 | x >> 2 & 4 | x >> 3 & 8 for x in range(256)])
_EVEN_HI = _EVEN_LO.translate(bytes(range(0, 256, 16)) * 16)

# _COMPACT[x] gathers the even bits of a 16-bit x into a byte.  Its 256-byte
# row for a high byte h is _EVEN_LO with _EVEN_HI[h] or-ed in: one of 16
# nibble tables, so the 64 KiB table is a join of those rows.
_NIBBLE_ROWS = [_EVEN_LO.translate(bytes(range(hi, hi + 16)) * 16)
                for hi in range(0, 256, 16)]
_COMPACT = b"".join([_NIBBLE_ROWS[hi >> 4] for hi in _EVEN_HI])

# Operands wider than this many bits (for _compact, results that wide)
# take the byte-string path: it costs a few fixed calls plus linear work,
# while each step of the loop copies the whole remaining number.  On
# CPython 3.11 the two cost the same at about 64 bits.
_LOOP_BITS = 64


def _check_nat(n: int, what: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")


def _spread(x: int) -> int:
    if x < 256:  # one table entry; most codec operands are this small
        return _SPREAD[x]
    if x >> _LOOP_BITS:
        n = (x.bit_length() + 7) >> 3
        data = x.to_bytes(n, "little")
        out = bytearray(2 * n)
        out[0::2] = data.translate(_SPREAD_LO)
        out[1::2] = data.translate(_SPREAD_HI)
        return int.from_bytes(out, "little")
    out = 0
    shift = 0
    while x:
        out |= _SPREAD[x & 0xFF] << shift
        x >>= 8
        shift += 16
    return out


def _compact(x: int) -> int:
    if x < 65536:
        return _COMPACT[x]
    if x >> 2 * _LOOP_BITS:
        data = x.to_bytes((x.bit_length() + 7) >> 3, "little")
        low = int.from_bytes(data[0::2].translate(_EVEN_LO), "little")
        return low | int.from_bytes(data[1::2].translate(_EVEN_HI), "little")
    out = 0
    shift = 0
    while x:
        out |= _COMPACT[x & 0xFFFF] << shift
        x >>= 16
        shift += 8
    return out


def mingle(a: int, b: int) -> int:
    """Interleave the bits of two naturals, ``b`` taking the even positions."""
    _check_nat(a, "a")
    _check_nat(b, "b")
    return (_spread(a) << 1) | _spread(b)


def unmingle(n: int) -> tuple[int, int]:
    """Inverse of :func:`mingle`: recover ``(a, b)`` from ``mingle(a, b)``."""
    _check_nat(n, "n")
    return _compact(n >> 1), _compact(n)


def mingle_fold(codes: Sequence[int]) -> int:
    """Left-fold ``mingle`` over a nonempty sequence of naturals."""
    if not codes:
        raise ValueError("mingle_fold requires at least one code")
    for c in codes:
        if type(c) is not int or c < 0:  # name the first bad code
            for i, c in enumerate(codes):
                _check_nat(c, f"codes[{i}]")
            break
    acc = codes[0]
    for c in codes[1:]:
        acc = (_spread(acc) << 1) | _spread(c)
    return acc


def unmingle_fold(n: int, k: int) -> list[int]:
    """Split ``n`` into the ``k`` codes whose mingle_fold it is."""
    _check_nat(n, "n")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive int, got {k!r}")
    if k == 1:
        return [n]
    out = []
    for _ in range(k - 1):
        out.append(_compact(n))
        n = _compact(n >> 1)
    out.append(n)
    out.reverse()
    return out
