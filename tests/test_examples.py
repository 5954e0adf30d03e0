"""Smoke tests: every example script runs to completion.

Examples are deliverables; these tests keep them from rotting.  Each runs
in a subprocess with arguments chosen for speed where the script accepts
any.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SRC = EXAMPLES.parent / "src"

#: script -> (args, expected substrings in stdout)
CASES = {
    "quickstart.py": ([], ["GM", "Portals", "application offload"]),
    "offload_detection.py": ([], ["White & Bova", "OffloadNIC"]),
    "netperf_pitfall.py": ([], ["netperf", "COMB polling"]),
    "custom_transport.py": ([], ["Portals/msg-irq"]),
    "smp_nodes.py": ([], ["per-CPU availability"]),
    "halo_exchange_app.py": (["--iters", "6", "--work", "500000"],
                             ["blocking", "speedup"]),
    "multinode_collectives.py": (["--size", "30"], ["bcast", "alltoall"]),
    "fanin_scaling.py": ([], ["peers", "aggregate bw"]),
    "timeline_trace.py": ([], ["kernel CPU"]),
    "compare_gm_portals.py": (["--per-decade", "1"], ["fig08", "fig11"]),
    "critical_path.py": ([], ["rendezvous_stall", "span tree",
                              "dominant cause: rendezvous_stall"]),
    "reproduce_paper.py": (["--quick", "--ids", "fig13"],
                           ["fig13", "regenerated 1 figures"]),
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_example_runs(script, tmp_path):
    args, expected = CASES[script]
    # Run from a scratch directory so relative outputs (the default
    # point cache) stay out of the working tree.
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for needle in expected:
        assert needle in proc.stdout, (
            f"{script}: {needle!r} missing from output"
        )
