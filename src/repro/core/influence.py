"""User influence within an entity community (Sec. 4.1.2).

A user is influential for entity ``e`` if she (a) contributes a large share
of the tweets linked to ``e`` and (b) is *discriminative* among the mention's
candidate entities — @NBAOfficial tweets about *Michael Jordan (basketball)*
but never about *Air Jordan* or the country.

Two estimators:

* :func:`tfidf_influence` (Eq. 6) — discriminativeness as the idf term
  ``log(|E_m| / |E_m^u|)``; penalizes a user as soon as she has tweets in
  several candidate communities.
* :func:`entropy_influence` (Eq. 7) — discriminativeness as the inverse
  entropy of the user's tweet distribution over the candidates; robust to
  the occasional off-topic posting.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

from repro.kb.complemented import ComplementedKnowledgebase

#: Smoothing added to the entropy before inverting: Eq. 7 is literally
#: ``1/entropy``, undefined at 0.  A vanishing epsilon would make *purity*
#: infinitely valuable — a lucky single-tweet user would outrank a 90/10
#: hub account, the exact inversion of the paper's intent ("an incident
#: posting should not cause huge impact on her influence").  We instantiate
#: the estimator as ``share / (s + entropy)``: a bounded discriminativeness
#: discount where tweet share stays the primary signal.  ``s = 2`` was
#: calibrated on the synthetic evaluation worlds (DESIGN.md §5); the paper
#: reports no value.
_ENTROPY_SMOOTHING = 2.0


def _tfidf(share: float, counts: Sequence[int], num_candidates: int) -> float:
    """Eq. 6 on a user's share of :math:`D_e` and her per-candidate counts."""
    mentioned = sum(1 for count in counts if count > 0)
    if mentioned == 0:
        return 0.0
    return share * math.log(num_candidates / mentioned)


def _entropy(share: float, counts: Sequence[int], num_candidates: int) -> float:
    """Eq. 7 on a user's share of :math:`D_e` and her per-candidate counts."""
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count:
            probability = count / total
            entropy -= probability * math.log(probability)
    return share / (entropy + _ENTROPY_SMOOTHING)


_FORMULAS = {"tfidf": _tfidf, "entropy": _entropy}


def _user_influence(
    formula: Callable[[float, Sequence[int], int], float],
    ckb: ComplementedKnowledgebase,
    user: int,
    entity_id: int,
    candidates: Sequence[int],
) -> float:
    count = ckb.user_count(entity_id, user)
    if count == 0:
        return 0.0
    counts = [ckb.user_count(c, user) for c in candidates]
    return formula(count / ckb.count(entity_id), counts, len(candidates))


def tfidf_influence(
    ckb: ComplementedKnowledgebase,
    user: int,
    entity_id: int,
    candidates: Sequence[int],
) -> float:
    """Eq. 6: tweet share in :math:`D_e` times candidate-set idf."""
    return _user_influence(_tfidf, ckb, user, entity_id, candidates)


def entropy_influence(
    ckb: ComplementedKnowledgebase,
    user: int,
    entity_id: int,
    candidates: Sequence[int],
) -> float:
    """Eq. 7: tweet share times inverse entropy over the candidate set."""
    return _user_influence(_entropy, ckb, user, entity_id, candidates)


def top_influential_users(
    ckb: ComplementedKnowledgebase,
    entity_id: int,
    candidates: Sequence[int],
    k: int,
    method: str = "entropy",
) -> List[int]:
    """The ``k`` most influential users of ``U_e`` — :math:`U^*_e`.

    Ranking ties break by ascending user id so results are deterministic.
    Only users with positive influence qualify; the list may be shorter
    than ``k`` (or empty for entities nobody tweets about).

    A zero count adds nothing to either formula, so only users who also
    tweet about another candidate have their other counts looked up; the
    rest are scored on ``(count,)`` — same arithmetic, same order.
    """
    try:
        formula = _FORMULAS[method]
    except KeyError:
        # ``method`` is validated at config load (LinkerConfig.__post_init__),
        # so reaching here from the serve path means a code bug, not bad input.
        raise ValueError(  # repro: noqa[FLOW-002] -- validated at config load
            f"unknown influence method {method!r}; expected one of {sorted(_FORMULAS)}"
        ) from None
    community_size = ckb.count(entity_id)
    if community_size == 0:
        return []
    own = ckb.user_counts(entity_id)
    if entity_id in candidates:
        shared = set()
        for other in candidates:
            if other != entity_id:
                shared |= own.keys() & ckb.user_counts(other).keys()
    else:
        # The shortcut reads the entity's own count as the whole vector;
        # outside its own candidate set every user needs the real one.
        shared = own.keys()
    num_candidates = len(candidates)
    scored: List[tuple] = []
    for user, count in own.items():
        if user in shared:
            counts: Sequence[int] = [ckb.user_count(c, user) for c in candidates]
        else:
            counts = (count,)
        score = formula(count / community_size, counts, num_candidates)
        if score > 0.0:
            scored.append((-score, user))
    scored.sort()
    return [user for _, user in scored[:k]]
