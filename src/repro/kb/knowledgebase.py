"""The knowledgebase (Definition 4): mentions, entities, and their mappings.

A :class:`Knowledgebase` holds

* the entity table (id → :class:`~repro.kb.entity.Entity`),
* the surface-form map (mention string → candidate entity ids), built from
  page titles, redirects, nicknames and disambiguation entries,
* per-entity description token lists (the entity's "page text", consumed by
  the context-similarity features of the baselines), and
* the inter-page hyperlink graph as *in-link sets* ``A_e`` — exactly the
  input of the Wikipedia Link-based Measure (Eq. 10).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cache.epochs import Epoch
from repro.kb.entity import Entity, EntityCategory
from repro.kb.wlm import wlm_relatedness


class Knowledgebase:
    """Mutable knowledgebase with mention↔entity maps and hyperlinks.

    :attr:`epoch` versions the KB structure for ``repro.cache``: every
    mutator bumps it (enforced by linter rule CACHE-001), so memoized
    candidate sets invalidate the moment a surface form or entity is
    added — structurally, with no cache-owner cooperation needed.
    """

    def __init__(self) -> None:
        self._entities: List[Entity] = []
        self._surfaces: Dict[str, List[int]] = {}
        self._descriptions: Dict[int, List[str]] = {}
        self._inlinks: Dict[int, Set[int]] = {}
        self._surfaces_of_entity: Dict[int, List[str]] = {}
        self.epoch = Epoch()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_entity(
        self,
        title: str,
        category: EntityCategory = EntityCategory.PERSON,
        topic: Optional[int] = None,
        description: Optional[Sequence[str]] = None,
    ) -> Entity:
        """Create an entity page and register its title as a surface form."""
        entity = Entity(
            entity_id=len(self._entities), title=title, category=category, topic=topic
        )
        self._entities.append(entity)
        self._inlinks[entity.entity_id] = set()
        self._descriptions[entity.entity_id] = list(description or [])
        self._surfaces_of_entity[entity.entity_id] = []
        self.add_surface_form(title, entity.entity_id)
        return entity

    def add_surface_form(self, surface: str, entity_id: int) -> None:
        """Map a mention string (title, redirect, nickname) to an entity.

        Registering the same pair twice is a no-op, mirroring how redirect
        pages and anchor texts repeatedly yield the same mapping.
        """
        self._check_entity(entity_id)
        normalized = surface.lower().strip()
        if not normalized:
            raise ValueError("surface form must be non-empty")
        candidates = self._surfaces.setdefault(normalized, [])
        if entity_id not in candidates:
            candidates.append(entity_id)
            self._surfaces_of_entity[entity_id].append(normalized)
            self.epoch.bump()

    def add_hyperlink(self, source_id: int, target_id: int) -> None:
        """Record a hyperlink from page ``source`` to page ``target``."""
        self._check_entity(source_id)
        self._check_entity(target_id)
        if source_id != target_id and source_id not in self._inlinks[target_id]:
            self._inlinks[target_id].add(source_id)
            self.epoch.bump()

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @property
    def num_entities(self) -> int:
        return len(self._entities)

    @property
    def num_surface_forms(self) -> int:
        return len(self._surfaces)

    def entity(self, entity_id: int) -> Entity:
        self._check_entity(entity_id)
        return self._entities[entity_id]

    def entities(self) -> Sequence[Entity]:
        return self._entities

    def mentions(self) -> Iterable[str]:
        """All known mention surfaces (the gazetteer NER vocabulary)."""
        return self._surfaces.keys()

    def candidates(self, surface: str) -> Tuple[int, ...]:
        """Candidate entity ids for an *exactly* matching surface form.

        Fuzzy matching lives in :class:`repro.kb.surface_index.SegmentIndex`.
        """
        return tuple(self._surfaces.get(surface.lower().strip(), ()))

    def surfaces_of(self, entity_id: int) -> Sequence[str]:
        """Every surface form registered for an entity."""
        self._check_entity(entity_id)
        return self._surfaces_of_entity[entity_id]

    def description(self, entity_id: int) -> List[str]:
        self._check_entity(entity_id)
        return self._descriptions[entity_id]

    def inlinks(self, entity_id: int) -> FrozenSet[int]:
        """Pages linking *to* ``entity_id`` — the set :math:`A_e` of Eq. 10."""
        self._check_entity(entity_id)
        return frozenset(self._inlinks[entity_id])

    def hyperlinks(self) -> Iterator[Tuple[int, int]]:
        """Every ``(source, target)`` hyperlink, grouped by target."""
        for target, sources in self._inlinks.items():
            for source in sources:
                yield source, target

    # ------------------------------------------------------------------ #
    # relatedness
    # ------------------------------------------------------------------ #
    def relatedness(self, entity_a: int, entity_b: int) -> float:
        """Topical relatedness between two entities (WLM, Eq. 10)."""
        return wlm_relatedness(
            self._inlinks[entity_a], self._inlinks[entity_b], self.num_entities
        )

    def _check_entity(self, entity_id: int) -> None:
        if not 0 <= entity_id < len(self._entities):
            raise KeyError(f"unknown entity id {entity_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Knowledgebase(entities={self.num_entities}, "
            f"surfaces={self.num_surface_forms})"
        )
