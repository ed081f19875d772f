#!/usr/bin/env python3
"""Survey the extreme components V(dominant(lam + w mu)) in rank 2.

For every dominant pair up to a coordinate bound, compare the multiplicity of
each Weyl-translate component against the double-coset fiber bound, and flag
the pairs where some translate exceeds multiplicity one (the rank-2
phenomenon that motivated the refined bound).  A translate whose
multiplicity falls below max(1, coset bound) is reported on stderr and the
script exits 3.

Usage: python scripts/explore_extreme_components.py [--type A2] [--bound 2]
"""

import argparse
import sys
from itertools import product

from lierep.rootsystem import Weight, build_root_system
from lierep.weyl import coset_fibers
from lierep.tensor import decompose


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--type", default="A2", choices=["A2", "B2", "G2"])
    ap.add_argument("--bound", type=int, default=2)
    args = ap.parse_args()

    rs = build_root_system(args.type)
    exceptional = []
    for lam_c in product(range(args.bound + 1), repeat=2):
        for mu_c in product(range(args.bound + 1), repeat=2):
            lam, mu = Weight(lam_c), Weight(mu_c)
            dec = decompose(rs, lam, mu)
            for t, bound in coset_fibers(rs, lam, mu).items():
                m = dec.entries.get(t, 0)
                if m < max(1, bound):
                    print(f"{rs.label}: {lam_c} (x) {mu_c} -> {t}: mult {m} "
                          f"is below the coset bound {max(1, bound)}",
                          file=sys.stderr)
                    return 3
                if m >= 2:
                    exceptional.append((lam_c, mu_c, t, m, bound))
    print(f"{rs.label}: translates with multiplicity >= 2 "
          f"(mult vs coset bound):")
    for lam_c, mu_c, t, m, bound in exceptional:
        tight = "tight" if m == bound else f"slack {m - bound}"
        print(f"  {lam_c} (x) {mu_c} -> {t}: mult {m}, bound {bound} ({tight})")
    if not exceptional:
        print("  none in range")
    return 0


if __name__ == "__main__":
    sys.exit(main())
