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

:func:`influential_user_sets` ranks :math:`U^*_e` by a threshold scan
over the count-ordered community: no user's term beats that of a user of
one community only, so ``op(share, that term)`` bounds her influence, and
the walk stops once the bound falls behind the k-th best.
The linker caches the rankings per candidate set, stamped with
``ckb.version`` of every member, and rescans a stale entry.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

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


def _idf_term(counts: Sequence[int], num_candidates: int) -> float:
    """Eq. 6's ``log(|E_m| / |E_m^u|)`` from a user's non-zero per-candidate
    counts; 0 (no influence) for a user outside every candidate community."""
    return math.log(num_candidates / len(counts)) if counts else 0.0


def _entropy_term(counts: Sequence[int], num_candidates: int) -> float:
    """Eq. 7's divisor, the smoothed entropy of a user's non-zero
    per-candidate counts; infinite (no influence) when there are none."""
    if not counts:
        return math.inf
    total = sum(counts)
    entropy = 0.0
    for count in counts:
        probability = count / total
        entropy -= probability * math.log(probability)
    return entropy + _ENTROPY_SMOOTHING


#: method -> (term, op): influence is ``op(share of D_e, term)``.  The term
#: belongs to the user and the candidate set, not to ``e``.  On a lone count
#: ``(n,)`` it is the same for every ``n`` and no user's term does better, so
#: ``op(share, term((1,)))`` bounds every user's influence; the scan stops on
#: that bound, which must be strictly increasing in the count
#: (``tests/test_influence.py`` pins it for every row).
_FORMULAS: Dict[str, Tuple[Callable[..., float], Callable[..., float]]] = {
    "tfidf": (_idf_term, operator.mul),
    "entropy": (_entropy_term, operator.truediv),
}


def _user_influence(
    method: str,
    ckb: ComplementedKnowledgebase,
    user: int,
    entity_id: int,
    candidates: Sequence[int],
) -> float:
    count = ckb.user_count(entity_id, user)
    if count == 0:
        return 0.0
    term, op = _FORMULAS[method]
    counts = [n for n in (ckb.user_count(c, user) for c in candidates) if n]
    return op(count / ckb.count(entity_id), term(counts, len(candidates)))


def tfidf_influence(
    ckb: ComplementedKnowledgebase, user: int, entity_id: int, candidates: Sequence[int]
) -> float:
    """Eq. 6: tweet share in :math:`D_e` times candidate-set idf."""
    return _user_influence("tfidf", ckb, user, entity_id, candidates)


def entropy_influence(
    ckb: ComplementedKnowledgebase, user: int, entity_id: int, candidates: Sequence[int]
) -> float:
    """Eq. 7: tweet share times inverse entropy over the candidate set."""
    return _user_influence("entropy", ckb, user, entity_id, candidates)


def _formula(method: str) -> Tuple[Callable[..., float], Callable[..., float]]:
    try:
        return _FORMULAS[method]
    except KeyError:
        # ``method`` is validated at config load (LinkerConfig.__post_init__),
        # so reaching here from the serve path means a code bug, not bad input.
        raise ValueError(
            f"unknown influence method {method!r}; expected one of {sorted(_FORMULAS)}"
        ) from None


#: Sorts after every ranking key of a positive influence and before the
#: key ``(-0.0, u)`` of a zero one: the scan's stop key until ``k`` are kept.
_POSITIVE = (0.0, -1)


def _scan(
    ckb: ComplementedKnowledgebase,
    entity: int,
    communities: Sequence[Counter],
    lone: float,
    term: Callable[..., float],
    op: Callable[..., float],
    k: int,
) -> List[int]:
    """:math:`U^*_e`: walk :meth:`~ComplementedKnowledgebase.users_by_count`
    keeping the best ``k`` keys ``(-influence, u)``, and stop at the first
    user whose bound key ``(-op(share, lone), u)`` sorts after the k-th.
    ``lone`` is the term of a user of one community only and no user's
    term does better, so no user from there on can make the cut."""
    own = ckb.user_counts(entity)
    total = ckb.count(entity)
    size = len(communities)
    best: List[Tuple[float, int]] = []
    worst = _POSITIVE
    for u in ckb.users_by_count(entity):
        share = own[u] / total
        key = (-op(share, lone), u)
        if key > worst:
            break
        counts = [c[u] for c in communities if u in c]
        if len(counts) != 1:  # on one count her term is ``lone`` itself
            key = (-op(share, term(counts, size)), u)
        if key < worst:
            bisect.insort(best, key)
            del best[k:]
            if best and len(best) == k:
                worst = best[-1]
    return [u for _, u in best]


def influential_user_sets(
    ckb: ComplementedKnowledgebase,
    entities: Sequence[int],
    candidates: Sequence[int],
    k: int,
    method: str = "entropy",
) -> Dict[int, List[int]]:
    """:func:`top_influential_users` of each of ``entities`` (the linker:
    all of them) against one candidate set, each by one threshold scan."""
    term, op = _formula(method)
    communities = [ckb.user_counts(c) for c in candidates]
    lone = term((1,), len(candidates))
    return {e: _scan(ckb, e, communities, lone, term, op, k) for e in entities}


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
    """
    return influential_user_sets(ckb, (entity_id,), candidates, k, method)[entity_id]
