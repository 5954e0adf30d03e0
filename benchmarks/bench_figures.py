"""Benchmark targets: every paper figure, regenerated from the registry.

Each case regenerates one results figure of the paper on the coarse grid
(1 point/decade — the ``comb bench`` default) with ``pytest-benchmark``
timing the regeneration, prints the plot, and asserts the paper's
claims on the fresh data.  ``examples/reproduce_paper.py`` runs the
full-resolution version.
"""

import pytest

from repro.analysis import PAPER_FIGURES, render, run_figure


@pytest.mark.parametrize("fig_id", PAPER_FIGURES)
def test_figure(benchmark, fig_id):
    """Regenerate one paper figure and check its claims."""
    report = benchmark.pedantic(run_figure, args=(fig_id,),
                                kwargs={"per_decade": 1},
                                rounds=1, iterations=1)
    print()
    print(render(report.figure))
    for claim in report.claims:
        print(f"  [{'PASS' if claim.ok else 'FAIL'}] {claim.claim} "
              f"({claim.detail})")
    failed = [c for c in report.claims if not c.ok]
    assert not failed, "; ".join(f"{c.claim}: {c.detail}" for c in failed)
