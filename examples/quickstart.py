#!/usr/bin/env python3
"""Quickstart: link ambiguous mentions with social-temporal context.

Builds the paper's Fig.-1 scenario by hand — the mention "jordan" that can
mean *Michael Jordan (basketball)*, *Michael Jordan (machine learning)* or
*Air Jordan* — and shows how the same mention resolves differently for
different users and at different times.

Run:  python examples/quickstart.py
"""

from repro import (
    ComplementedKnowledgebase,
    DiGraph,
    Knowledgebase,
    LinkerConfig,
    SocialTemporalLinker,
)
from repro.config import DAY


def build_knowledgebase() -> Knowledgebase:
    """A miniature Wikipedia: six entities, one ambiguous mention."""
    kb = Knowledgebase()
    kb.add_entity("Michael Jordan (basketball)", description="nba bulls dunk".split())
    kb.add_entity("Michael Jordan (ML)", description="icml model inference".split())
    kb.add_entity("Air Jordan", description="sneaker shoes brand".split())
    kb.add_entity("Chicago Bulls", description="nba chicago team".split())
    kb.add_entity("NBA", description="basketball league season".split())
    kb.add_entity("ICML", description="machine learning conference".split())
    for entity_id in (0, 1, 2):
        kb.add_surface_form("jordan", entity_id)
    # hyperlinks: the basketball pages cite each other, so do the ML pages
    for cluster in ((0, 3, 4), (1, 5)):
        for a in cluster:
            for b in cluster:
                if a != b:
                    kb.add_hyperlink(a, b)
    return kb


def main() -> None:
    kb = build_knowledgebase()

    # --- offline knowledge acquisition -------------------------------- #
    # Each entity accumulates tweets (author + timestamp): the complemented
    # knowledgebase of Definition 5.
    ckb = ComplementedKnowledgebase(kb)
    NBA_OFFICIAL, ML_PROF, SNEAKERHEAD = 10, 11, 12
    for day in range(9):  # @NBAOfficial tweets basketball Jordan daily
        ckb.link_tweet(0, user=NBA_OFFICIAL, timestamp=day * DAY)
    for day in range(4):  # the professor tweets ML Jordan
        ckb.link_tweet(1, user=ML_PROF, timestamp=day * DAY)
    for day in range(3):  # the sneakerhead tweets Air Jordan
        ckb.link_tweet(2, user=SNEAKERHEAD, timestamp=day * DAY)

    # --- the followee-follower network --------------------------------- #
    ALICE, BOB, CAROL = 0, 1, 2  # test users
    graph = DiGraph(26)  # users 20-25 tweet the sneaker drop below
    graph.add_edge(ALICE, NBA_OFFICIAL)  # Alice follows @NBAOfficial
    graph.add_edge(BOB, ML_PROF)         # Bob follows the ML professor

    linker = SocialTemporalLinker(
        ckb, graph, config=LinkerConfig(burst_threshold=2, influential_users=2)
    )

    # --- online inference ---------------------------------------------- #
    now = 100 * DAY
    for name, user in [("Alice", ALICE), ("Bob", BOB), ("Carol", CAROL)]:
        result = linker.link("jordan", user=user, now=now)
        best = result.best
        print(f"{name} says 'jordan'  ->  {kb.entity(best.entity_id).title}")
        print(
            f"    score={best.score:.3f} "
            f"(interest={best.interest:.3f}, recency={best.recency:.3f}, "
            f"popularity={best.popularity:.3f})"
        )

    # --- recency: a sneaker drop happens ------------------------------- #
    print("\n... a burst of Air Jordan tweets arrives ...")
    for i in range(6):
        linker.confirm_link(2, user=20 + i, timestamp=now - 0.2 * DAY)
    result = linker.link("jordan", user=CAROL, now=now)
    print(
        f"Carol (no social signal) now resolves to: "
        f"{kb.entity(result.best.entity_id).title}"
    )


if __name__ == "__main__":
    main()
