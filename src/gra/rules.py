"""Rule numbers and their decoded lookup tables.

A rule is a 16-bit integer.  Bit i (i in 0..7) gives the next state for a
vertex in configuration i; bit i+8 flags whether that configuration
triggers a division.  The step kernel reads those bits from the number
itself.  The two 8-entry tables a rule is decoded into serve the dense
oracle in :mod:`gra.dense`, :func:`encode` and :func:`complement_rule`, so
the oracle checks the kernel against a decoding of its own.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RuleNumberOutOfRangeError

RULE_SPACE = 1 << 16


@dataclass(frozen=True, eq=False)
class Rule:
    number: int
    next_state: np.ndarray  # (8,) uint8, indexed by configuration
    divides: np.ndarray  # (8,) uint8, indexed by configuration

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.number == other.number

    def __hash__(self) -> int:
        return hash(self.number)

    def __repr__(self) -> str:
        return f"Rule({self.number}=0b{self.number:016b})"


def check_rule_number(n: int) -> int:
    """n itself; RuleNumberOutOfRangeError when it is outside the rule space."""
    if not 0 <= n < RULE_SPACE:
        raise RuleNumberOutOfRangeError(f"rule number {n} outside [0, {RULE_SPACE - 1}]")
    return n


@lru_cache(maxsize=None)
def decode(n: int) -> Rule:
    """Decode a rule number into its two 8-entry tables."""
    check_rule_number(n)
    next_state = np.array([(n >> i) & 1 for i in range(8)], dtype=np.uint8)
    divides = np.array([(n >> (i + 8)) & 1 for i in range(8)], dtype=np.uint8)
    next_state.flags.writeable = False
    divides.flags.writeable = False
    return Rule(number=n, next_state=next_state, divides=divides)


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
    next*(c) = 1 - next(7-c), divides*(c) = divides(7-c).
    """
    next_state = np.array([1 - int(rule.next_state[7 - c]) for c in range(8)], dtype=np.uint8)
    divides = np.array([int(rule.divides[7 - c]) for c in range(8)], dtype=np.uint8)
    return decode(encode(Rule(number=-1, next_state=next_state, divides=divides)))


def parse_rule_number(text: str) -> int:
    """Accept a rule number in decimal or prefix-tagged binary/hex (0b.../0x...)."""
    try:
        n = int(text, 0)
    except ValueError:
        raise RuleNumberOutOfRangeError(f"not a rule number: {text!r}")
    return check_rule_number(n)
