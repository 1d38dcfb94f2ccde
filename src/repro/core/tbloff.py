"""The ``hybrid.tbloff`` address-hashing instruction (Section 3.4, fn. 1).

The fine-grain region table is distributed so that the slice covering the
lines homed in one L3 bank lives in that same bank, avoiding cross-bank
table lookups. Because the address space is strided across banks at DRAM
row granularity, a target address must be *hashed* before being added to
the table base. The paper adds an instruction for this so software stays
microarchitecture-agnostic; we implement the exact eight-controller bit
permutation given in footnote 1:

* ``addr[9..5]`` indexes the bit within the 32-bit table word, and
* the table word offset is ``addr[31..24] . addr[13..11] . addr[23..14]
  . addr[10]`` (concatenation, most significant field first), shifted
  left by 2 to form a byte offset.

The 22-bit word offset plus the 5-bit bit index together use all 27 line
bits of a 32-bit address exactly once, so the mapping is a bijection from
lines to table bits -- property-tested in ``tests/core/test_tbloff.py``.
"""

from __future__ import annotations


def _bits(value: int, hi: int, lo: int) -> int:
    """Extract ``value[hi..lo]`` (inclusive, hi >= lo)."""
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def tbloff(addr: int) -> int:
    """Byte offset into the fine-grain region table for ``addr``.

    This is the value the ``hybrid.tbloff`` instruction writes to its
    destination register: add it to the table base address to obtain the
    word to modify with ``atom.or`` / ``atom.and``.
    """
    word_offset = (
        (_bits(addr, 31, 24) << 14)
        | (_bits(addr, 13, 11) << 11)
        | (_bits(addr, 23, 14) << 1)
        | _bits(addr, 10, 10)
    )
    return word_offset << 2


def table_bit_index(addr: int) -> int:
    """Bit position (0..31) of ``addr``'s line within its table word."""
    return _bits(addr, 9, 5)


def table_slot(addr: int) -> "tuple[int, int]":
    """(byte offset of table word, bit index within it) for ``addr``."""
    return tbloff(addr), table_bit_index(addr)


def table_entry_addr(table_base: int, addr: int) -> int:
    """Absolute byte address of the table word covering ``addr``."""
    return table_base + tbloff(addr)
