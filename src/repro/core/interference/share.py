"""Distributed share calculation (paper Section 5.2).

Each AP ``i`` computes its spectrum share without talking to anyone:

    "for each active client, the AP i reserves S/NP_i distinct shares,
    giving it a total share of S_i = N_i * S / NP_i"

where ``S`` is the total subchannel count, ``N_i`` the AP's own active
clients and ``NP_i`` the PRACH-estimated number of active clients in its
neighbourhood (own clients included).  The estimate is deliberately
conservative: imperfect sensing can only under-estimate the share, never
grab more than the fair fraction (Section 5.4, "suboptimal share").
"""

from __future__ import annotations

import math


def compute_share(
    total_subchannels: int,
    own_active_clients: int,
    estimated_contenders: int,
) -> int:
    """Number of subchannels AP ``i`` reserves: ``floor(N_i * S / NP_i)``.

    Rounding is downward (conservative) but an AP with at least one active
    client always reserves at least one subchannel, otherwise it could
    never serve anyone.

    Args:
        total_subchannels: ``S``, the subchannels on the carrier.
        own_active_clients: ``N_i``.
        estimated_contenders: ``NP_i``; clamped up to ``N_i`` since an AP
            always hears its own clients.

    Raises:
        ValueError: on non-positive ``S`` or negative client counts.
    """
    if total_subchannels <= 0:
        raise ValueError(f"need at least one subchannel, got {total_subchannels}")
    if own_active_clients < 0:
        raise ValueError(f"own client count must be >= 0, got {own_active_clients}")
    if estimated_contenders < 0:
        raise ValueError(
            f"contender estimate must be >= 0, got {estimated_contenders}"
        )
    if own_active_clients == 0:
        return 0
    contenders = max(estimated_contenders, own_active_clients)
    share = math.floor(own_active_clients * total_subchannels / contenders)
    return max(1, min(share, total_subchannels))
