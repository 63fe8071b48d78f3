"""Write bench/golden.json: digests of seeded outputs that must never change.

    python3 bench/record_golden.py

Pins ssm stabilize results, firings and bit counts, simulate histograms
for both models, and the census level polynomials of every shape with
m, n <= 4.  Run it only to pin a deliberate, documented output change.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main() -> int:
    run._prepare()
    import harness as H
    import workloads as W

    specs = W.golden_specs("dynamics_asm") + W.golden_specs("dynamics_ssm") + W.census_golden_specs()
    golden = {name: H.digest(fn()) for name, fn in specs}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} digests written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
