"""Entity recency :math:`S_r` (Sec. 4.2): sliding window + propagation.

Raw recency is a burst detector: entity ``e`` is *recent* when at least
``θ1`` tweets were linked to it inside the window ``τ`` ending now (Eq. 9),
normalized over the mention's candidate set.

Recency also *propagates*: a burst on "NBA" reinforces "Michael Jordan
(basketball)".  The :class:`RecencyPropagationNetwork` is built once from
the knowledgebase:

1. edge weight = WLM topical relatedness (Eq. 10);
2. edges between co-candidates of the same mention are forbidden (recency
   must discriminate candidates, not equalize them);
3. edges below ``θ2`` are cut, and the surviving connected components form
   the clusters inside which a PageRank-style iteration (Eq. 11) runs.

At query time only the components containing candidate entities are
propagated — the constraint that makes the model fast enough for the
0.5 ms/tweet budget of Sec. 5.2.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase


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
        relatedness_threshold: float,
        propagation_lambda: float,
        max_iterations: int = 6,
        tolerance: float = 1e-5,
    ) -> None:
        if not 0.0 <= relatedness_threshold <= 1.0:
            raise ValueError("relatedness_threshold must be in [0, 1]")
        if not 0.0 <= propagation_lambda <= 1.0:
            raise ValueError("propagation_lambda must be in [0, 1]")
        self._kb = kb
        self._threshold = relatedness_threshold
        self._lambda = propagation_lambda
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        # adjacency: entity -> [(neighbor, normalized weight P(e_i, e_j))]
        self._edges: Dict[int, List[Tuple[int, float]]] = {}
        self._component_of: Dict[int, int] = {}
        self._components: List[List[int]] = []
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
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
        for entity in self._kb.entities():
            for source in self._kb.inlinks(entity.entity_id):
                outlinks.setdefault(source, []).append(entity.entity_id)
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
            index = len(self._components)
            self._components.append(sorted(component))
            for node in component:
                self._component_of[node] = index

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return sum(len(neighbors) for neighbors in self._edges.values()) // 2

    @property
    def num_components(self) -> int:
        return len(self._components)

    def neighbors(self, entity_id: int) -> List[Tuple[int, float]]:
        """Propagation neighbors with normalized transition weights."""
        return list(self._edges.get(entity_id, ()))

    def component(self, entity_id: int) -> List[int]:
        """The cluster containing ``entity_id`` (singleton if isolated)."""
        index = self._component_of.get(entity_id)
        if index is None:
            return [entity_id]
        return list(self._components[index])

    def component_index(self, entity_id: int) -> Optional[int]:
        """Stable index of the entity's cluster; ``None`` when isolated.

        The incremental recency cache keys its per-cluster fixed points
        on this index.
        """
        return self._component_of.get(entity_id)

    def component_members(self, index: int) -> List[int]:
        """Members of cluster ``index``, sorted (construction order)."""
        return self._components[index]

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #
    def propagate(self, initial: Dict[int, float]) -> Dict[int, float]:
        """Eq. 11 — iterate ``S^i = λ·S⁰ + (1-λ)·P·S^{i-1}`` to convergence.

        ``initial`` maps entity → raw recency; entities missing from the map
        have initial recency 0.  Only components touching a nonzero initial
        entry (or an entity listed in ``initial``) are iterated.

        The fixed-point map is linear in the initial vector and the linker
        renormalizes the result over the candidate set, so the default
        ``max_iterations = 6`` (residual < 2% of mass at λ = 0.5) yields
        rankings indistinguishable from full convergence at a fraction of
        the cost — the 0.5 ms/tweet budget of Sec. 5.2.2 is spent here.
        """
        touched: Set[int] = set()
        for entity_id in initial:
            index = self._component_of.get(entity_id)
            if index is not None:
                touched.add(index)
        result = dict(initial)
        for index in touched:
            component = self._components[index]
            scores = {e: initial.get(e, 0.0) for e in component}
            if not any(scores.values()):
                continue  # nothing to diffuse — the common no-burst case
            result.update(self._iterate_component(component, scores))
        return result

    def propagate_component(
        self, index: int, initial: Dict[int, float]
    ) -> Dict[int, float]:
        """Eq. 11 fixed point for a single cluster.

        ``initial`` maps entity → raw recency for members of cluster
        ``index`` (missing members default to 0).  Same arithmetic as the
        matching cluster pass inside :meth:`propagate` — the incremental
        recency cache calls this per dirty cluster and must stay
        bit-identical to the full recompute.
        """
        component = self._components[index]
        scores = {e: initial.get(e, 0.0) for e in component}
        if not any(scores.values()):
            return scores
        return self._iterate_component(component, scores)

    def _iterate_component(
        self, component: Sequence[int], scores: Dict[int, float]
    ) -> Dict[int, float]:
        """Run the damped iteration on one cluster until convergence."""
        base = dict(scores)
        for _ in range(self._max_iterations):
            delta = 0.0
            fresh: Dict[int, float] = {}
            for entity_id in component:
                incoming = sum(
                    weight * scores[neighbor]
                    for neighbor, weight in self._edges.get(entity_id, ())
                )
                value = (
                    self._lambda * base[entity_id] + (1.0 - self._lambda) * incoming
                )
                fresh[entity_id] = value
                delta += abs(value - scores[entity_id])
            scores = fresh
            if delta < self._tolerance:
                break
        return scores


def propagated_recency(
    ckb: ComplementedKnowledgebase,
    network: RecencyPropagationNetwork,
    candidates: Sequence[int],
    now: float,
    window: float,
    burst_threshold: int,
) -> Dict[int, float]:
    """Candidate recency with cluster reinforcement, normalized per Eq. 9.

    Raw (burst-gated) recency is gathered for every entity in the clusters
    of the candidates, propagated per Eq. 11, and the candidates' final
    values are re-normalized over the candidate set so the feature remains
    comparable with the non-propagated variant.
    """
    cluster_entities: Set[int] = set()
    for entity_id in candidates:
        cluster_entities.update(network.component(entity_id))
    initial: Dict[int, float] = {}
    for entity_id in cluster_entities:
        count = ckb.recent_count(entity_id, now, window)
        initial[entity_id] = float(count) if count >= burst_threshold else 0.0
    propagated = network.propagate(initial)
    values = {entity_id: propagated.get(entity_id, 0.0) for entity_id in candidates}
    total = sum(values.values())
    if total == 0.0:
        return {entity_id: 0.0 for entity_id in candidates}
    return {entity_id: value / total for entity_id, value in values.items()}
