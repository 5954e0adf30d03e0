"""Show that the benchmark's correctness check can fail.

    python3 perfbench/selfcheck.py

Runs one untraced seed-0 pass of ``paper-gm`` and scores it three ways:
against the committed reference (must give ``failed_share`` 0), against
a copy with one point digest corrupted, and with one paper claim
flipped to failing (both must give ``failed_share`` > 0).  Exits 0 when
all three hold.
"""

from __future__ import annotations

import copy
import sys

from run import check_pass, load_reference, run_pass

WORKLOAD = "paper-gm"


def failed_share(result: dict, reference: dict) -> float:
    attempted, failed, _problems = check_pass(result, reference, claims=True)
    return failed / attempted


def main() -> int:
    result = run_pass(WORKLOAD, 0)
    reference = load_reference(WORKLOAD)

    corrupt_ref = copy.deepcopy(reference)
    fig = next(iter(corrupt_ref["figures"].values()))
    fig["digests"][0] = "0" * len(fig["digests"][0])

    broken_claim = copy.deepcopy(result)
    claims = next(f["claims"] for f in broken_claim["figures"].values())
    claims[0][1] = False

    cases = (
        ("committed reference", failed_share(result, reference), False),
        ("one corrupted digest", failed_share(result, corrupt_ref), True),
        ("one failing claim", failed_share(broken_claim, reference), True),
    )
    ok = True
    for name, share, should_fail in cases:
        good = (share > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'BAD '} {name}: failed_share={share:.4f} "
              f"(expected {'> 0' if should_fail else '0'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
