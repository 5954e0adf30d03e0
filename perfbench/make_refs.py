"""Write the seed-0 reference digests under ``refs/``.

    python3 perfbench/make_refs.py [workload ...]

Runs one untraced seed-0 pass per workload and stores, per figure, the
digest of every point's result record in run order plus the number of
paper claims.  Refuses to write a reference from a pass in which a
figure raised, a claim failed or the run departed from the set-up task
list.  Regenerate only when a change is meant to alter simulated
results, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import REFS, as_reference, run_pass
from workloads import WORKLOADS


def main(argv) -> int:
    for workload in argv or sorted(WORKLOADS):
        res = run_pass(workload, 0)
        for fig, f in res["figures"].items():
            bad_claims = [c for c, ok in f["claims"] or [] if not ok]
            if f["error"] or bad_claims or f["keys"] != f["planned"]:
                print(f"{workload}/{fig}: refusing to write a reference "
                      f"(error={f['error']}, failing claims={bad_claims})",
                      file=sys.stderr)
                return 1
        ref = {"workload": workload, "seed": 0, **as_reference(res)}
        path = REFS / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        n = sum(len(f["digests"]) for f in ref["figures"].values())
        print(f"{path.name}: {n} point digests, {res['events']} events")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
