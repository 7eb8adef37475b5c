"""Knowledgebase container tests."""

import pytest

from repro.kb.entity import EntityCategory
from repro.kb.knowledgebase import Knowledgebase


class TestEntities:
    def test_add_entity_assigns_dense_ids(self):
        kb = Knowledgebase()
        first = kb.add_entity("alpha")
        second = kb.add_entity("beta")
        assert (first.entity_id, second.entity_id) == (0, 1)
        assert kb.num_entities == 2

    def test_title_becomes_surface_form(self):
        kb = Knowledgebase()
        entity = kb.add_entity("Michael Jordan")
        assert kb.candidates("michael jordan") == (entity.entity_id,)

    def test_unknown_entity_raises(self):
        kb = Knowledgebase()
        with pytest.raises(KeyError):
            kb.entity(3)

    def test_category_and_topic_stored(self):
        kb = Knowledgebase()
        entity = kb.add_entity("x", category=EntityCategory.LOCATION, topic=2)
        assert kb.entity(entity.entity_id).category is EntityCategory.LOCATION
        assert kb.entity(entity.entity_id).topic == 2


class TestSurfaceForms:
    def test_many_to_many(self):
        kb = Knowledgebase()
        a = kb.add_entity("jordan (country)")
        b = kb.add_entity("michael jordan (basketball)")
        kb.add_surface_form("jordan", a.entity_id)
        kb.add_surface_form("jordan", b.entity_id)
        kb.add_surface_form("mj", b.entity_id)
        assert set(kb.candidates("jordan")) == {a.entity_id, b.entity_id}
        assert kb.candidates("mj") == (b.entity_id,)
        assert "jordan" in kb.surfaces_of(b.entity_id)

    def test_case_insensitive_lookup(self):
        kb = Knowledgebase()
        entity = kb.add_entity("NBA")
        assert kb.candidates("nba") == (entity.entity_id,)
        assert kb.candidates("  NBA ") == (entity.entity_id,)

    def test_duplicate_registration_is_noop(self):
        kb = Knowledgebase()
        entity = kb.add_entity("x")
        kb.add_surface_form("ex", entity.entity_id)
        kb.add_surface_form("ex", entity.entity_id)
        assert kb.candidates("ex") == (entity.entity_id,)

    def test_empty_surface_rejected(self):
        kb = Knowledgebase()
        entity = kb.add_entity("x")
        with pytest.raises(ValueError):
            kb.add_surface_form("   ", entity.entity_id)

    def test_unknown_mention_has_no_candidates(self):
        kb = Knowledgebase()
        kb.add_entity("x")
        assert kb.candidates("nothing") == ()

    def test_mentions_enumerates_vocabulary(self):
        kb = Knowledgebase()
        entity = kb.add_entity("alpha beta")
        kb.add_surface_form("ab", entity.entity_id)
        assert set(kb.mentions()) == {"alpha beta", "ab"}


class TestHyperlinksAndRelatedness:
    def test_inlinks_recorded(self):
        kb = Knowledgebase()
        a = kb.add_entity("a")
        b = kb.add_entity("b")
        kb.add_hyperlink(a.entity_id, b.entity_id)
        assert kb.inlinks(b.entity_id) == frozenset({a.entity_id})
        assert kb.inlinks(a.entity_id) == frozenset()

    def test_self_link_ignored(self):
        kb = Knowledgebase()
        a = kb.add_entity("a")
        kb.add_hyperlink(a.entity_id, a.entity_id)
        assert kb.inlinks(a.entity_id) == frozenset()

    def test_relatedness_uses_common_inlinks(self, tiny_kb):
        # basketball cluster pair vs cross-cluster pair
        same = tiny_kb.relatedness(0, 3)
        cross = tiny_kb.relatedness(0, 1)
        assert same > cross

    def test_descriptions(self):
        kb = Knowledgebase()
        entity = kb.add_entity("a", description=["x", "y"])
        assert kb.description(entity.entity_id) == ["x", "y"]
