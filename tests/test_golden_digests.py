"""Golden outcome digests: experiment results pinned across commits.

The tier-equivalence suites compare one pipeline tier with another at the
same commit, so a semantic change made the same way on every tier passes
them all.  These digests pin the results themselves: each entry is a
sha256 over ``repr(report.data["rows"])`` of one experiment at small
scale and a fixed seed (``repr(report.data)`` when the report has no
``rows``).  A change that moves a digest changes outcomes,
and must say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import SCALES, run_experiment

#: (experiment id, scale name, seed) -> sha256 of repr(rows), or of
#: repr(data) for reports without rows
GOLDEN = {
    ("ext-churn", "small", 1): (
        "656211ff93be56b145ae755482180c421a4fac57eb5fa43a549e96a4e3ce196b"
    ),
    ("fig5", "small", 1): (
        "d7247506b4766d4b8728508487f1c4d9323ecfec915f7064c9bad7fef5274d12"
    ),
    ("shard-outage", "small", 1): (
        "2476421e82973db5a7d1c04f05375e3904efd46d18babac436567d4f6e29a09c"
    ),
    ("table4", "small", 1): (
        "32468efad5aee088b44b4911b1c0acd321942605948c9548d14007ad48fa3e00"
    ),
}


@pytest.mark.parametrize(
    ("exp_id", "scale", "seed"), sorted(GOLDEN), ids=lambda v: str(v)
)
def test_experiment_rows_match_golden_digest(exp_id, scale, seed):
    report = run_experiment(exp_id, SCALES[scale], seed=seed)
    data = report.data
    text = repr(data["rows"]) if "rows" in data else repr(data)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN[(exp_id, scale, seed)], text
