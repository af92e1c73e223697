#!/usr/bin/env python3
"""Monte-Carlo behavior of the global invariants against sample count.

The curvature integrands of these embeddings are constants, so the
quotient integrals are exact at any sample count; this script shows that
directly, and contrasts it with a genuinely varying integrand whose
standard error shrinks like 1/sqrt(N).
"""

import argparse
import math

import numpy as np

from veronese import measure


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("constant integrands (deviation from the target value):")
    print(f"{'samples':>8} {'gauss_bonnet - 1':>18} {'sigma - 6 pi^(4/3)':>20}")
    target = 6 * math.pi ** (4.0 / 3.0)
    for count in (100, 1000, 10_000, 100_000):
        gi2 = measure.global_invariants(2, "real", count, args.seed)["image"]
        gi3 = measure.global_invariants(3, "real", count, args.seed)["image"]
        print(f"{count:>8} {gi2['gauss_bonnet_ratio'] - 1.0:>18.3e} "
              f"{gi3['sigma_quotient'] - target:>20.3e}")

    print("\nvarying integrand x0^4 over the level-2 real quotient:")
    print(f"{'samples':>8} {'estimate':>12} {'std_error':>12}")
    for count in (100, 1000, 10_000, 100_000):
        est = measure.integrate_quotient(
            lambda p: p[:, 0] ** 4, 2, "real", count, args.seed)
        print(f"{count:>8} {est.value:>12.6f} {est.std_error:>12.6f}")


if __name__ == "__main__":
    main()
