"""User interest by social interactions :math:`S_{in}` (Sec. 4.1, Eq. 3/8).

A user's interest in an entity is her interest in *following the community*
tweeting about it — the average weighted reachability from her to the
community's most influential members:

.. math::

    S_{in}(u, e) = \\frac{\\sum_{v \\in U^*_e} R(u, v)}{|U^*_e|}

Reachability values come from a pluggable provider so the same code runs on
the extended transitive closure, the compact 2-hop cover, or plain online
BFS (the ablation of DESIGN.md §4).
"""

from __future__ import annotations

from typing import Dict, Protocol, Sequence

__all__ = [
    "ReachabilityProvider",
    "normalized_interest",
    "user_interest",
]


class ReachabilityProvider(Protocol):
    """Anything that answers weighted reachability queries.

    Satisfied by :class:`repro.graph.TransitiveClosure`,
    :class:`repro.graph.CompactTwoHopCover` and the oracle
    :class:`repro.testing.oracles.OnlineReachability`.
    """

    def reachability(self, source: int, target: int) -> float:
        """Weighted reachability :math:`R(source, target)` (0 if unreachable)."""
        ...  # pragma: no cover - protocol


def user_interest(
    provider: ReachabilityProvider, user: int, influential_users: Sequence[int]
) -> float:
    """Eq. 8 — average weighted reachability to :math:`U^*_e`.

    Returns 0.0 for an empty influential set (nobody tweets about the
    entity, so the social signal is silent).
    """
    if not influential_users:
        return 0.0
    total = sum(provider.reachability(user, v) for v in influential_users)
    return total / len(influential_users)


def normalized_interest(
    provider: ReachabilityProvider, user: int, influential_by_entity: Dict[int, Sequence[int]]
) -> Dict[int, float]:
    """Candidate-set-normalized :math:`S_{in}` for one mention.

    Eq. 2 and Eq. 9 normalize popularity and recency over the candidate set;
    raw average reachability, by contrast, lives on a much smaller scale, so
    a fixed ``α`` cannot balance the features across mentions.  Normalizing
    interest the same way keeps the three features commensurable (the
    ranking within a candidate set is unchanged — the map is monotone).
    See DESIGN.md §5.
    """
    raw = {
        entity_id: user_interest(provider, user, influential)
        for entity_id, influential in influential_by_entity.items()
    }
    total = sum(raw.values())
    if total == 0.0:
        return {entity_id: 0.0 for entity_id in raw}
    return {entity_id: value / total for entity_id, value in raw.items()}
