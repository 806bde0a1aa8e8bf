"""The first draws of every census family (census.py) against the counts
committed in census_counts.json, by census.mismatches: the same certified
and inconclusive counts, none wrong, and the largest disagreement with the
oracles within ten times the committed one.  The whole census, 3,000 draws
a family, runs outside this suite (census.py --check)."""

import json

import pytest
from census import COUNTS, FAMILIES, census, double_roots, mismatches, summary

from delayplatoon.analysis import rightmost_root

RECORDED = json.loads(COUNTS.read_text())


def test_counts_cover_every_family_and_none_is_wrong():
    assert set(RECORDED["families"]) == set(RECORDED["first"]["families"]) == set(FAMILIES)
    assert all(counts["wrong"] == 0 for counts in RECORDED["families"].values())


@pytest.mark.parametrize("family", FAMILIES)
def test_first_draws_match_the_committed_counts(family):
    want = RECORDED["first"]["families"][family]
    got = summary(census(family, RECORDED["first"]["draws"]))
    assert mismatches(got, want) == []


def test_the_constructed_double_root_is_the_certified_one():
    """ext-double builds h_a from a double root lam.  Where no certified
    root lies right of lam, lam is the rightmost root (1,501 of the 3,000
    draws), and the certified one must be lam itself to 1e-8 relative.
    Schröder's step (_recentred) lands within 1.7e-9 of it; a Newton stop
    re-polished from its real part stayed up to 6.8e-7 away, beyond 1e-7
    on 554 of those draws."""
    near = 0
    for qp, lam in double_roots(RECORDED["draws"]):
        root = rightmost_root(qp)
        if root.real <= lam + 1e-6 * abs(lam):
            near += 1
            assert abs(root - lam) <= 1e-8 * abs(lam), (qp, lam, root)
    assert near == 1501
