"""Knowledgebase substrate: entities, surface forms, links, relatedness.

Stands in for the Wikipedia dump of Sec. 5.1.1: entity pages with
descriptions, redirect/nickname surface forms, disambiguation-style
ambiguous mentions, and the inter-page hyperlink graph that feeds the
Wikipedia Link-based Measure (WLM).
"""

from repro.kb.builder import KBProfile, SyntheticWikipediaBuilder, SyntheticKB
from repro.kb.checkpoint import (
    StreamCheckpoint,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.entity import Entity, EntityCategory
from repro.kb.knowledgebase import Knowledgebase
from repro.kb.surface_index import SegmentIndex
from repro.kb.wlm import wlm_relatedness

__all__ = [
    "ComplementedKnowledgebase",
    "Entity",
    "EntityCategory",
    "KBProfile",
    "Knowledgebase",
    "SegmentIndex",
    "StreamCheckpoint",
    "SyntheticKB",
    "SyntheticWikipediaBuilder",
    "load_checkpoint",
    "restore",
    "save_checkpoint",
    "snapshot",
    "wlm_relatedness",
]
