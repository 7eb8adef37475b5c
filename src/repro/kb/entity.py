"""Entity records of the knowledgebase."""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional


class EntityCategory(enum.Enum):
    """Coarse entity categories used in the Appendix C.1 experiment."""

    PERSON = "Person"
    LOCATION = "Location"
    COMPANY = "Company"
    PRODUCT = "Product"
    MOVIE_MUSIC = "Movie&Music"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class Entity:
    """A unique real-world object described by a knowledgebase page.

    Attributes
    ----------
    entity_id:
        Dense integer id, the KB's primary key.
    title:
        Canonical page title, e.g. ``"Michael Jordan (basketball)"``.
    category:
        Coarse type of the entity (Appendix C.1 experiment).
    topic:
        Id of the synthetic topic cluster the entity belongs to (``None``
        for KBs built from external data); drives hyperlink density and the
        tweet generator, never read by the linking algorithms themselves.
    """

    entity_id: int
    title: str
    category: EntityCategory = EntityCategory.PERSON
    topic: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.title

