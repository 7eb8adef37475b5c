"""Entity recency :math:`S_r` (Sec. 4.2): sliding window + propagation.

Raw recency is a burst detector: entity ``e`` is *recent* when at least
``θ1`` tweets were linked to it inside the window ``τ`` ending now (Eq. 9),
normalized over the mention's candidate set.

Recency also *propagates*: a burst on "NBA" reinforces "Michael Jordan
(basketball)".  The :class:`RecencyPropagationNetwork` is built from the
knowledgebase, and again whenever the KB has changed since:

1. edge weight = WLM topical relatedness (Eq. 10);
2. edges between co-candidates of the same mention are forbidden (recency
   must discriminate candidates, not equalize them);
3. edges below ``θ2`` are cut, and the surviving connected components form
   the clusters inside which a PageRank-style iteration (Eq. 11) runs.

Eq. 11 is linear in the initial vector, so its ``k`` steps are folded at
construction into one dense operator per cluster (``S^k = M·S⁰``, see
:meth:`RecencyPropagationNetwork._build_operators`).  At query time only
the clusters containing candidate entities are touched, and each
candidate costs one row of ``M`` dotted with its cluster's burst-gated
recent counts — the constraint that makes the model fast enough for the
0.5 ms/tweet budget of Sec. 5.2.2.  The iteration itself survives as the
test oracle (:func:`repro.testing.oracles.propagate_by_iteration`).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import PROPAGATION_LAMBDA, RELATEDNESS_THRESHOLD
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase

#: ``k`` — the number of Eq. 11 steps folded into each cluster's operator.
#: Fixed: the linker renormalizes over the candidate set, so 6 steps
#: (residual < 2% of mass at λ = 0.5) rank as full convergence does.
PROPAGATION_STEPS = 6


def sliding_window_recency(
    ckb: ComplementedKnowledgebase,
    candidates: Sequence[int],
    now: float,
    window: float,
    burst_threshold: int,
) -> Dict[int, float]:
    """Eq. 9 — burst-gated recent-tweet share within the candidate set."""
    recent = {
        entity_id: ckb.recent_count(entity_id, now, window)
        for entity_id in candidates
    }
    total = sum(recent.values())
    if total == 0:
        return {entity_id: 0.0 for entity_id in candidates}
    return {
        entity_id: (count / total if count >= burst_threshold else 0.0)
        for entity_id, count in recent.items()
    }


class RecencyPropagationNetwork:
    """Thresholded WLM-relatedness clusters with Eq. 11 propagation."""

    def __init__(
        self,
        kb: Knowledgebase,
        relatedness_threshold: float = RELATEDNESS_THRESHOLD,
        propagation_lambda: float = PROPAGATION_LAMBDA,
    ) -> None:
        if not 0.0 <= relatedness_threshold <= 1.0:
            raise ValueError("relatedness_threshold must be in [0, 1]")
        if not 0.0 <= propagation_lambda <= 1.0:
            raise ValueError("propagation_lambda must be in [0, 1]")
        self._kb = kb
        self._threshold = relatedness_threshold
        self._lambda = propagation_lambda
        self._build()

    def current(self) -> "RecencyPropagationNetwork":
        """This network, or one rebuilt with its parameters when the KB has
        learned an entity, surface form or hyperlink since it was built: a
        new co-candidate pair splits a cluster, a new in-link moves WLM."""
        if self._kb_epoch == self._kb.epoch.value:
            return self
        rebuilt = copy.copy(self)
        rebuilt._build()
        return rebuilt

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        self._kb_epoch = self._kb.epoch.value  # taken before any read
        # adjacency: entity -> [(neighbor, normalized weight P(e_i, e_j))]
        self._edges: Dict[int, List[Tuple[int, float]]] = {}
        self._components: List[Tuple[int, ...]] = []
        # one dense Eq. 11 operator per cluster, rows and columns in
        # component_members order
        self._operators: List[np.ndarray] = []
        # entity -> (cluster index, the entity's row of that operator)
        self._rows: Dict[int, Tuple[int, np.ndarray]] = {}
        forbidden = self._co_candidate_pairs()
        raw_edges = self._related_pairs(forbidden)
        # Normalize outgoing weights into transition probabilities P.
        weight_sums: Dict[int, float] = {}
        for (a, b), weight in raw_edges.items():
            weight_sums[a] = weight_sums.get(a, 0.0) + weight
            weight_sums[b] = weight_sums.get(b, 0.0) + weight
        for (a, b), weight in raw_edges.items():
            self._edges.setdefault(a, []).append((b, weight / weight_sums[a]))
            self._edges.setdefault(b, []).append((a, weight / weight_sums[b]))
        self._find_components()
        self._build_operators()

    def _co_candidate_pairs(self) -> Set[Tuple[int, int]]:
        """Entity pairs sharing a surface form — never connected (heuristic 1)."""
        forbidden: Set[Tuple[int, int]] = set()
        for surface in self._kb.mentions():
            candidates = self._kb.candidates(surface)
            for i, a in enumerate(candidates):
                for b in candidates[i + 1 :]:
                    forbidden.add((min(a, b), max(a, b)))
        return forbidden

    def _related_pairs(
        self, forbidden: Set[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], float]:
        """WLM ≥ θ2 pairs, enumerated via co-citation (shared in-links).

        Only pairs with at least one common in-link can have nonzero WLM,
        so we enumerate pairs co-cited by some page instead of all O(n²).
        """
        outlinks: Dict[int, List[int]] = {}
        for source, target in self._kb.hyperlinks():
            outlinks.setdefault(source, []).append(target)
        pairs: Set[Tuple[int, int]] = set()
        for targets in outlinks.values():
            for i, a in enumerate(targets):
                for b in targets[i + 1 :]:
                    pairs.add((min(a, b), max(a, b)))
        edges: Dict[Tuple[int, int], float] = {}
        for pair in sorted(pair for pair in pairs if pair not in forbidden):
            weight = self._kb.relatedness(*pair)
            if weight >= self._threshold:
                edges[pair] = weight
        return edges

    def _find_components(self) -> None:
        """Connected components of the thresholded graph (the "graph-cut")."""
        seen: Set[int] = set()
        for entity_id in self._edges:
            if entity_id in seen:
                continue
            component: List[int] = []
            stack = [entity_id]
            seen.add(entity_id)
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor, _ in self._edges.get(node, ()):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            self._components.append(tuple(sorted(component)))

    def _build_operators(self) -> None:
        """Fold the ``k = PROPAGATION_STEPS`` steps of Eq. 11 into one matrix.

        ``S^i = λ·S⁰ + Q·S^{i-1}`` with ``Q = (1-λ)·P`` is linear in
        ``S⁰``, so ``S^k = M·S⁰`` where ``M_0 = I`` and
        ``M_i = λ·I + Q·M_{i-1}``, i.e. ``M = λ·Σ_{i<k} Qⁱ + Qᵏ``.  ``M``
        depends only on the KB's link structure, ``θ2``, ``λ`` and ``k``
        — never on the burst counts — and costs ``Σ n_c²`` floats.
        """
        damping = 1.0 - self._lambda
        for index, members in enumerate(self._components):
            position = {entity_id: row for row, entity_id in enumerate(members)}
            size = len(members)
            step = np.zeros((size, size))
            for entity_id, row in position.items():
                for neighbor, weight in self._edges[entity_id]:
                    step[row, position[neighbor]] = damping * weight
            restart = self._lambda * np.eye(size)
            operator = np.eye(size)
            for _ in range(PROPAGATION_STEPS):
                operator = restart + step @ operator
            self._operators.append(operator)
            for entity_id, row in position.items():
                self._rows[entity_id] = (index, operator[row])

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return sum(len(neighbors) for neighbors in self._edges.values()) // 2

    @property
    def num_components(self) -> int:
        return len(self._components)

    @property
    def propagation_lambda(self) -> float:
        """:math:`\\lambda` of Eq. 11 — the restart weight on ``S⁰``."""
        return self._lambda

    def neighbors(self, entity_id: int) -> List[Tuple[int, float]]:
        """Propagation neighbors with normalized transition weights."""
        return list(self._edges.get(entity_id, ()))

    def component(self, entity_id: int) -> List[int]:
        """The cluster containing ``entity_id`` (singleton if isolated)."""
        located = self._rows.get(entity_id)
        if located is None:
            return [entity_id]
        return list(self._components[located[0]])

    def component_index(self, entity_id: int) -> Optional[int]:
        """Stable index of the entity's cluster; ``None`` when isolated."""
        located = self._rows.get(entity_id)
        return None if located is None else located[0]

    def component_members(self, index: int) -> Tuple[int, ...]:
        """Members of cluster ``index``, sorted (construction order): the
        group ``propagated_recency`` reads with one ``ckb.recent_counts``."""
        return self._components[index]

    def operator(self, index: int) -> np.ndarray:
        """The Eq. 11 operator ``M`` of cluster ``index``: entry ``[i, j]``
        is what a unit of raw recency on member ``j`` contributes to
        member ``i`` after ``PROPAGATION_STEPS`` steps (members in
        :meth:`component_members` order).  Callers must not write to it."""
        return self._operators[index]

    def operator_row(self, entity_id: int) -> Optional[Tuple[int, np.ndarray]]:
        """``(cluster index, the entity's row of that cluster's operator)``;
        ``None`` when the entity is isolated (propagation is then the
        identity on it)."""
        return self._rows.get(entity_id)


def propagated_recency(
    ckb: ComplementedKnowledgebase,
    network: RecencyPropagationNetwork,
    candidates: Sequence[int],
    now: float,
    window: float,
    burst_threshold: int,
) -> Dict[int, float]:
    """Candidate recency with cluster reinforcement, normalized per Eq. 9.

    Raw recency is gathered once per call for every member of the
    candidates' clusters, one ``ckb.recent_counts`` per cluster, and
    burst-gated in one op; each candidate's propagated value is its
    operator row dotted with the gated counts (Eq. 11), the products added
    left to right, and the values are re-normalized over the candidate set
    so the feature remains comparable with the non-propagated variant.
    """
    # cluster index -> its members' recent counts, zero below the threshold
    gated: Dict[int, np.ndarray] = {}
    values: Dict[int, float] = {}
    for entity_id in candidates:
        located = network.operator_row(entity_id)
        if located is None:
            count = ckb.recent_count(entity_id, now, window)
            values[entity_id] = float(count) if count >= burst_threshold else 0.0
            continue
        index, row = located
        raws = gated.get(index)
        if raws is None:
            counts = ckb.recent_counts(network.component_members(index), now, window)
            raws = gated[index] = np.multiply(
                counts, counts >= burst_threshold, dtype=float
            )
        # accumulate adds in order, as sum() does, and a gated member adds
        # +0.0 (the operator is nonnegative): same bits as the oracle
        values[entity_id] = float(np.add.accumulate(row * raws)[-1])
    total = sum(values.values())
    if total == 0.0:
        return {entity_id: 0.0 for entity_id in candidates}
    return {entity_id: value / total for entity_id, value in values.items()}
