"""Wikipedia Link-based Measure (Eq. 10, after Witten & Milne AAAI'08).

Two pages are topically related when many third pages link to both:

.. math::

    Rel(e_i, e_j) = 1 - \\frac{\\log(\\max(|A_i|, |A_j|)) -
                               \\log(|A_i \\cap A_j|)}
                              {\\log(|A|) - \\log(\\min(|A_i|, |A_j|))}

where :math:`A_e` is the in-link set of page ``e`` and ``|A|`` the total
number of pages.  The value is clamped to ``[0, 1]``: pages with no common
in-links get 0, identical in-link sets approach 1.
"""

from __future__ import annotations

import math
from typing import AbstractSet


def wlm_relatedness(
    inlinks_a: AbstractSet[int], inlinks_b: AbstractSet[int], total_pages: int
) -> float:
    """Compute WLM relatedness of two pages from their in-link sets.

    Degenerate cases (empty in-link set, no overlap, tiny corpora where the
    denominator vanishes) return 0.0 — "not related" is the safe default for
    both recency propagation and topical-coherence voting.
    """
    size_a = len(inlinks_a)
    size_b = len(inlinks_b)
    if size_a == 0 or size_b == 0 or total_pages < 2:
        return 0.0
    common = len(inlinks_a & inlinks_b)
    if common == 0:
        return 0.0
    larger = max(size_a, size_b)
    smaller = min(size_a, size_b)
    denominator = math.log(total_pages) - math.log(smaller)
    if denominator <= 0.0:
        # smaller in-link set covers (almost) the whole corpus; any overlap
        # is uninformative.
        return 1.0 if common == larger else 0.0
    score = 1.0 - (math.log(larger) - math.log(common)) / denominator
    return min(1.0, max(0.0, score))
