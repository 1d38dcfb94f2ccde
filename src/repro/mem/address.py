"""Address arithmetic for the 32-bit single address space.

The machine uses 32-byte cache lines of eight 4-byte words (Table 3). The
physical address space is striped across GDDR memory controllers at DRAM
row granularity, exactly as described in footnote 1 of the paper:

* ``addr[10..0]`` map to the same memory controller (2 KB rows),
* ``addr[13..11]`` stride across the eight controllers,
* bits above 13 select rows (and, within a controller, the L3 banks that
  front it).

Four L3 banks front each controller, selected by ``addr[15..14]``.
"""

from __future__ import annotations

from dataclasses import dataclass

LINE_BYTES = 32
LINE_SHIFT = 5
WORD_BYTES = 4
WORD_SHIFT = 2
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES
FULL_WORD_MASK = (1 << WORDS_PER_LINE) - 1  # all eight words of a line

ADDRESS_BITS = 32
ADDRESS_SPACE = 1 << ADDRESS_BITS


def line_of(addr: int) -> int:
    """Return the line number containing byte address ``addr``."""
    return addr >> LINE_SHIFT


def line_base(line: int) -> int:
    """Return the base byte address of line number ``line``."""
    return line << LINE_SHIFT


def word_index(addr: int) -> int:
    """Return the word index (0..7) of ``addr`` within its line."""
    return (addr >> WORD_SHIFT) & (WORDS_PER_LINE - 1)


def align_up(addr: int, granularity: int = LINE_BYTES) -> int:
    """Round ``addr`` up to a multiple of ``granularity``."""
    rem = addr % granularity
    return addr if rem == 0 else addr + (granularity - rem)


def lines_in_range(base: int, size: int):
    """Iterate over the line numbers overlapped by ``[base, base+size)``."""
    if size <= 0:
        return range(0)
    first = line_of(base)
    last = line_of(base + size - 1)
    return range(first, last + 1)


@dataclass(frozen=True)
class AddressMap:
    """Maps byte addresses to DRAM channels and L3 banks.

    Parameters mirror the baseline's eight-channel, 32-bank organisation
    but both may be scaled down (always to powers of two) for small test
    machines. Channel striding follows the paper's DRAM-row stride:
    ``addr[13..11]`` select among 8 channels; the banks fronting a channel
    are selected by the bits immediately above.
    """

    n_channels: int = 8
    n_l3_banks: int = 32
    channel_shift: int = 11  # 2 KB DRAM rows

    def __post_init__(self) -> None:
        if self.n_channels <= 0 or self.n_channels & (self.n_channels - 1):
            raise ValueError(f"n_channels must be a power of two, got {self.n_channels}")
        if self.n_l3_banks % self.n_channels:
            raise ValueError(
                f"n_l3_banks ({self.n_l3_banks}) must be a multiple of "
                f"n_channels ({self.n_channels})"
            )
        per = self.n_l3_banks // self.n_channels
        if per & (per - 1):
            raise ValueError("banks per channel must be a power of two")

    @property
    def banks_per_channel(self) -> int:
        return self.n_l3_banks // self.n_channels

    def channel_of(self, addr: int) -> int:
        """DRAM channel for byte address ``addr``."""
        return (addr >> self.channel_shift) & (self.n_channels - 1)

    def bank_of(self, addr: int) -> int:
        """L3 bank index (0 .. n_l3_banks-1) for byte address ``addr``.

        Banks are grouped by channel: bank ``b`` fronts channel
        ``b // banks_per_channel``.
        """
        channel = (addr >> self.channel_shift) & (self.n_channels - 1)
        per = self.n_l3_banks // self.n_channels
        shift = self.channel_shift + (self.n_channels.bit_length() - 1)
        within = (addr >> shift) & (per - 1)
        return channel * per + within

    def bank_of_line(self, line: int) -> int:
        """L3 bank for line number ``line``."""
        return self.bank_of(line << LINE_SHIFT)

    def channel_of_bank(self, bank: int) -> int:
        """DRAM channel fronted by L3 bank ``bank``."""
        return bank // self.banks_per_channel
