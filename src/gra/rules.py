"""Rule numbers and their decoded lookup tables.

A rule is a 16-bit integer.  Bit i (i in 0..7) gives the next state for a
vertex in configuration i; bit i+8 flags whether that configuration
triggers a division.  The step kernel reads those bits from the number
itself.  A :class:`Rule` holds only its number; the two 8-entry tables it
decodes into serve the dense oracle in :mod:`gra.dense` and
:func:`encode`, so the oracle checks the kernel against a decoding of its
own.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RuleNumberOutOfRangeError

RULE_SPACE = 1 << 16


def _table(n: int, first_bit: int) -> np.ndarray:
    """Bits first_bit .. first_bit + 7 of n as a read-only uint8 table."""
    table = np.array([(n >> (first_bit + c)) & 1 for c in range(8)], dtype=np.uint8)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Rule:
    """A rule number in the rule space; it compares and hashes as its number."""

    number: int

    def __post_init__(self):
        check_rule_number(self.number)

    @cached_property
    def next_state(self) -> np.ndarray:
        """(8,) uint8, indexed by configuration."""
        return _table(self.number, 0)

    @cached_property
    def divides(self) -> np.ndarray:
        """(8,) uint8, indexed by configuration."""
        return _table(self.number, 8)

    def __repr__(self) -> str:
        return f"Rule({self.number}=0b{self.number:016b})"


def check_rule_number(n: int) -> int:
    """n itself; RuleNumberOutOfRangeError when it is outside the rule space."""
    if not 0 <= n < RULE_SPACE:
        raise RuleNumberOutOfRangeError(f"rule number {n} outside [0, {RULE_SPACE - 1}]")
    return n


def decode(n: int) -> Rule:
    """The rule with number n, whose tables are decoded from its bits."""
    return Rule(n)


def encode(rule: Rule) -> int:
    """Inverse of decode: pack the two tables back into a rule number."""
    n = 0
    for i in range(8):
        n += (int(rule.next_state[i]) << i) + (int(rule.divides[i]) << (i + 8))
    return n


def single_division_subset() -> list[int]:
    """The 1024 rule numbers with exactly one division flag, on a dead-cell
    configuration (0..3): {i + 2**j for i in 0..255, j in 8..11}, ascending."""
    return sorted(i + (1 << j) for j in range(8, 12) for i in range(256))


def complement_rule(rule: Rule) -> Rule:
    """The rule that commutes with flipping every vertex state.

    Flipping states maps configuration c to 7-c, so the complement rule
    reads its tables through that involution and flips the produced state:
    next*(c) = 1 - next(7-c), divides*(c) = divides(7-c).  On the number,
    bit c becomes 1 - bit(7-c) and bit c+8 becomes bit(15-c).
    """
    n = rule.number
    m = 0
    for c in range(8):
        m |= (1 - ((n >> (7 - c)) & 1)) << c
        m |= ((n >> (15 - c)) & 1) << (c + 8)
    return Rule(m)


def parse_rule_number(text: str) -> int:
    """Accept a rule number in decimal or prefix-tagged binary/hex (0b.../0x...)."""
    try:
        n = int(text, 0)
    except ValueError:
        raise RuleNumberOutOfRangeError(f"not a rule number: {text!r}")
    return check_rule_number(n)
