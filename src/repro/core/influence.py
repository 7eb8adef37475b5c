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

The linker caches one :class:`InfluentialSets` per candidate set and
refreshes it from the links written since its stamp;
:func:`influential_user_sets` derives the same rankings from scratch.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import AbstractSet, Callable, Dict, List, Sequence, Tuple

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
#: belongs to the user and the candidate set, not to ``e``, and on a lone
#: count ``(n,)`` it is the same for every ``n`` — so among the users of one
#: community only, influence must be strictly increasing in the count
#: (``tests/test_influence.py`` pins it for every row): the ranking relies on it.
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


def _rank(
    ckb: ComplementedKnowledgebase,
    entity: int,
    mine: AbstractSet[int],
    terms: Dict[int, float],
    lone_term: float,
    op: Callable[..., float],
    k: int,
) -> List[int]:
    """:math:`U^*_e` from ``mine`` (the users of ``U_e`` who sit in another
    candidate community too, with their ``terms``) and the first ``k``
    others in :meth:`~ComplementedKnowledgebase.users_by_count` order: those
    share ``lone_term``, so they rank among themselves by ``(-count, user)``."""
    own = ckb.user_counts(entity)
    total = ckb.count(entity)
    scored = [(-op(own[u] / total, terms[u]), u) for u in mine]
    lone = (u for u in ckb.users_by_count(entity) if u not in mine)
    scored += [(-op(own[u] / total, lone_term), u) for u in itertools.islice(lone, k)]
    scored.sort()
    return [u for negated, u in scored[:k] if negated < 0.0]


def _from_scratch(
    ckb: ComplementedKnowledgebase,
    entities: Sequence[int],
    candidates: Sequence[int],
    k: int,
    method: str,
) -> Tuple[Dict[int, float], Dict[int, AbstractSet[int]], Dict[int, List[int]]]:
    """``(terms, mine, rankings)``: the term of every user who sits in two of
    the communities, each entity's such users, and each entity's ranking."""
    term, op = _formula(method)
    communities = {c: ckb.user_counts(c) for c in candidates}
    ranked = {
        e: communities[e] if e in communities else ckb.user_counts(e) for e in entities
    }
    shared: set = set()
    for e, own in ranked.items():
        for c, other in communities.items():
            if c > e or c not in ranked:  # each unordered pair once
                shared |= own.keys() & other.keys()
    size = len(communities)
    terms = {
        u: term([c[u] for c in communities.values() if u in c], size) for u in shared
    }
    mine = {e: own.keys() & shared for e, own in ranked.items()}
    rankings = {}
    for e in ranked:
        # a user of this community alone: her vector is ``(count,)``, or
        # empty when ``e`` is scored outside its own candidate set
        lone_term = term((1,) if e in communities else (), size)
        rankings[e] = _rank(ckb, e, mine[e], terms, lone_term, op, k)
    return terms, mine, rankings


def influential_user_sets(
    ckb: ComplementedKnowledgebase,
    entities: Sequence[int],
    candidates: Sequence[int],
    k: int,
    method: str = "entropy",
) -> Dict[int, List[int]]:
    """:func:`top_influential_users` of each of ``entities`` (the linker:
    all of them) against one candidate set, from scratch: every community is
    read once, and the term of a user who sits in several is derived once.
    This is the oracle :meth:`InfluentialSets.refresh` is checked against."""
    return _from_scratch(ckb, entities, candidates, k, method)[2]


class InfluentialSets:
    """:math:`U^*_e` of every member of one candidate set, and what a
    refresh reuses: the ``ckb.version`` stamp it was built at, the term of
    every user sitting in two or more of the communities, and each member's
    such users.  Never edited once built — a refresh builds a new one, so a
    ``rankings`` dict a reader holds stays as it was handed out."""

    __slots__ = ("stamp", "rankings", "_terms", "_mine")

    def __init__(
        self,
        stamp: Tuple[int, ...],
        terms: Dict[int, float],
        mine: Dict[int, AbstractSet[int]],
        rankings: Dict[int, List[int]],
    ) -> None:
        self.stamp = stamp
        self.rankings = rankings
        self._terms = terms
        self._mine = mine

    @classmethod
    def build(
        cls,
        ckb: ComplementedKnowledgebase,
        candidates: Tuple[int, ...],
        stamp: Tuple[int, ...],
        k: int,
        method: str,
    ) -> "InfluentialSets":
        """From scratch, stamped with ``stamp`` (read before any count)."""
        return cls(stamp, *_from_scratch(ckb, candidates, candidates, k, method))

    def refresh(
        self,
        ckb: ComplementedKnowledgebase,
        candidates: Tuple[int, ...],
        stamp: Tuple[int, ...],
        k: int,
        method: str,
    ) -> "InfluentialSets":
        """The same sets at ``stamp``, from the links written since
        :attr:`stamp`.  ``D_e`` only grows and a user's counts move only
        with her own links, so only those authors can change term or join
        another community; each member is then re-ranked from its shared
        users and the count order, unless neither its ``D_e`` nor any of its
        users moved."""
        term, op = _formula(method)
        communities = {c: ckb.user_counts(c) for c in candidates}
        authors: set = set()
        for c, before, now in zip(candidates, self.stamp, stamp):
            authors.update(ckb.link_columns(c)[0][before:now])
        size = len(communities)
        fresh = {}
        joined: Dict[int, set] = {}
        for u in authors:
            among = [c for c, own in communities.items() if u in own]
            if len(among) > 1:
                fresh[u] = term([communities[c][u] for c in among], size)
                for c in among:
                    joined.setdefault(c, set()).add(u)
        terms = {**self._terms, **fresh} if fresh else self._terms
        mine = dict(self._mine)
        for c, users in joined.items():
            mine[c] = mine[c] | users
        lone_term = term((1,), size)
        rankings = {}
        for c, before, now in zip(candidates, self.stamp, stamp):
            if before == now and communities[c].keys().isdisjoint(authors):
                rankings[c] = self.rankings[c]
            else:
                rankings[c] = _rank(ckb, c, mine[c], terms, lone_term, op, k)
        return InfluentialSets(stamp, terms, mine, rankings)


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
