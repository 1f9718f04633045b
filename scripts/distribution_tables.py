#!/usr/bin/env python3
"""Print the exact area distributions, their parity split, and the shape
census sizes for a range of n, cross-checked against the polynomials."""
import argparse
import sys

from permshape.genfun import lbsum_polynomial, parity_table
from permshape.oracle import distribution, shape_census


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    args = parser.parse_args()

    table = parity_table(args.max_n)
    for n in range(args.max_n + 1):
        dist = distribution(n, "lbsum")
        if lbsum_polynomial(n).to_counts() != dist.counts:
            sys.exit(f"n={n}: F_n disagrees with the enumerated area distribution")
        even, odd = dist.parity_split()
        if (even, odd) != (table.even[n], table.odd[n]):
            sys.exit(
                f"n={n}: enumerated parity split {(even, odd)} != "
                f"{(table.even[n], table.odd[n])} from the recursion"
            )
        print(f"n={n}")
        print("  area counts:", " ".join(f"{v}:{c}" for v, c in sorted(dist.counts.items())))
        print(f"  parity: even={even} odd={odd} delta={even - odd}")
        if n <= 9:
            census = shape_census(n)
            print(f"  shapes: {len(census)} (census total {sum(census.values())})")


if __name__ == "__main__":
    main()
