"""Algorithm 1 and the PIT backend reproduce their recorded plans exactly.

``tests/fixtures/plan_goldens.json`` (regenerated by
``tests/plan_goldens.py``) pins, bit for bit, the kernel choices of both
selection searches, the priced figure workloads on fresh and shared-cache
backends, and Figure 15's training points.  A refactor of the search, the
plan cache or the backend's memoization has to leave every value equal.
"""

import pytest

import plan_goldens


@pytest.fixture(scope="module")
def goldens():
    return plan_goldens.load()


@pytest.mark.parametrize("section", sorted(plan_goldens.SECTIONS))
def test_section_matches_goldens(goldens, section):
    observed = plan_goldens.SECTIONS[section]()
    expected = goldens[section]
    assert observed.keys() == expected.keys()
    differing = [name for name in expected if observed[name] != expected[name]]
    assert not differing, (
        f"{len(differing)} {section} case(s) moved, e.g. {differing[0]}: "
        f"{observed[differing[0]]} != {expected[differing[0]]}"
    )
