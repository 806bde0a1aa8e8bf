"""The first draws of every census family (census.py) against the counts
committed in census_counts.json: the same certified and inconclusive
counts, none wrong, and the largest disagreement with the oracles within
ten times the committed one.  The whole census, 3,000 draws a family,
runs outside this suite."""

import json

import pytest
from census import COUNTS, FAMILIES, census, summary

RECORDED = json.loads(COUNTS.read_text())


def test_counts_cover_every_family_and_none_is_wrong():
    assert set(RECORDED["families"]) == set(RECORDED["first"]["families"]) == set(FAMILIES)
    assert all(counts["wrong"] == 0 for counts in RECORDED["families"].values())


@pytest.mark.parametrize("family", FAMILIES)
def test_first_draws_match_the_committed_counts(family):
    want = RECORDED["first"]["families"][family]
    got = summary(census(family, RECORDED["first"]["draws"]))
    assert got["wrong"] == 0
    assert (got["certified"], got["inconclusive"]) == (want["certified"], want["inconclusive"])
    assert got["max_disagreement"] <= 10.0 * want["max_disagreement"]
