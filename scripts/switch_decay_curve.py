#!/usr/bin/env python3
"""Record the switch-density decay of the shifted-sum product prefix.

Emits a CSV curve (prefix length, switch density) over a dyadic ladder.
This is the oracle run behind the recorded values in tolerances.json.

Usage: python scripts/switch_decay_curve.py [max_log2=20] [out.csv]
"""

import sys

from normlab.analysis import switch_density
from normlab.bitarith import shifted_sum
from normlab.generators import finite_sums, kappa_sequence


def main() -> int:
    max_log2 = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    out = sys.argv[2] if len(sys.argv) > 2 else None
    N = 1 << max_log2
    shifts = [0] + finite_sums(N)
    total = shifted_sum(kappa_sequence(), shifts, N, 64)
    digits = total.fraction_digits(N, certified_only=False)
    lines = ["prefix_length,switch_density"]
    for lg in range(12, max_log2 + 1, 2):
        d = float(switch_density(digits[: 1 << lg]))
        lines.append(f"{1 << lg},{d:.6f}")
    text = "\n".join(lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
