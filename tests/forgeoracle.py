"""The exhaustive forging-rate enumeration, the tests' reference for ``forge_success_closed_form``."""

import itertools
from fractions import Fraction
from typing import Optional, Sequence

ORACLE_ENUMERATION_BOUND = 24  # combined length d*m beyond this is impractical to enumerate


def forge_success_oracle(
    m: int,
    d: int,
    knowledge_pattern: Optional[Sequence[bool]] = None,
) -> Fraction:
    """Exact success probability of ``dbasim.adversary.forge_claim``, by brute enumeration.

    Enumerates every balanced assignment of the checker's discord bits
    (independently per segment) together with every fill choice the forger
    can make, all uniformly weighted, and counts the outcomes where the
    forged claim passes the check.

    The sender's arrangement and the forger's own discord bits are fixed to
    a canonical layout; success counts depend only on how many candidates of
    each kind the forger holds per segment, and those counts are invariants
    of the list properties.  The forged bit is opposite to the honestly
    announced bit, the only case where forging differs from relaying.

    ``knowledge_pattern`` marks which segments leaked, one flag per
    distributor; None means no disclosure.  Instances are capped at
    d*m <= 24 because the enumeration is exponential.
    """
    if m <= 0 or m % 6 != 0:
        raise ValueError(f"segment length must be a positive multiple of 6, got {m}")
    if d < 1:
        raise ValueError(f"need at least one distributor, got {d}")
    if d * m > ORACLE_ENUMERATION_BOUND:
        raise ValueError(
            f"instance too large for exhaustive enumeration: d*m = {d * m} exceeds {ORACLE_ENUMERATION_BOUND}"
        )
    disclosed = tuple(knowledge_pattern) if knowledge_pattern is not None else (False,) * d
    if len(disclosed) != d:
        raise ValueError(f"knowledge pattern has {len(disclosed)} flags, expected {d}")

    third, sixth = m // 3, m // 6
    need = d * m // 3

    # Canonical per-segment layout: [0, third) sender 0, [third, 2*third)
    # sender 1, [2*third, m) discord.  The sender announced 0, the forger
    # forges 1, and the forger's own discord bits are 1 on the first sixth
    # of each discord block.
    def is_agreement_good(x: int) -> bool:
        return third <= x % m < 2 * third

    fill_pool = [
        s * m + off
        for s in range(d)
        if not disclosed[s]
        for off in [*range(third, 2 * third), *range(2 * third, 2 * third + sixth)]
    ]

    # One balanced assignment per segment: which local discord offsets hold
    # 1 on the checker's list.
    per_segment = [frozenset(c) for c in itertools.combinations(range(third), sixth)]

    good = 0
    total = 0
    for assign in itertools.product(per_segment, repeat=d):
        known_good = sorted(
            s * m + off
            for s in range(d)
            if disclosed[s]
            for off in range(third, m)
            if off < 2 * third or (off - 2 * third) in assign[s]
        )
        picked = known_good[:need]
        fill = need - len(picked)
        for extra in itertools.combinations(fill_pool, fill) if fill > 0 else ((),):
            total += 1
            good += all(is_agreement_good(x) or (x % m - 2 * third) in assign[x // m] for x in [*picked, *extra])
    return Fraction(good, total)
