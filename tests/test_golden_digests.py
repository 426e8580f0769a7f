"""Golden outcome digests: experiment results pinned across commits.

The tier-equivalence suites compare one pipeline tier with another at the
same commit, so a semantic change made the same way on every tier passes
them all.  These digests pin the result rows themselves: each entry is a
sha256 over ``repr(report.data["rows"])`` of one experiment at small
scale and a fixed seed.  A change that moves a digest changes outcomes,
and must say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import SCALES, run_experiment

#: (experiment id, scale name, seed) -> sha256 of repr(rows)
GOLDEN = {
    ("shard-outage", "small", 1): (
        "2476421e82973db5a7d1c04f05375e3904efd46d18babac436567d4f6e29a09c"
    ),
}


@pytest.mark.parametrize(
    ("exp_id", "scale", "seed"), sorted(GOLDEN), ids=lambda v: str(v)
)
def test_experiment_rows_match_golden_digest(exp_id, scale, seed):
    report = run_experiment(exp_id, SCALES[scale], seed=seed)
    rows = repr(report.data["rows"])
    digest = hashlib.sha256(rows.encode()).hexdigest()
    assert digest == GOLDEN[(exp_id, scale, seed)], rows
