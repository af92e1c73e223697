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

from veronese import construct, geometry, measure


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

    # the Monte-Carlo mean and standard error, times the quotient volume under
    # the image metric, whose homothety factor is read at the canonical point
    map_ = construct.build(2, "real")
    lam = geometry.curvature_field(map_, geometry.canonical_point(map_)[None])["lambda"][0]
    volume = measure.quotient_volume_factor(2, "real", float(lam))
    print("\nvarying integrand x0^4 over the level-2 real quotient:")
    print(f"{'samples':>8} {'estimate':>12} {'std_error':>12}")
    for count in (100, 1000, 10_000, 100_000):
        values = measure.quotient_samples(2, "real", count, args.seed)[:, 0] ** 4
        std_error = float(np.std(values, ddof=1)) / math.sqrt(count)
        print(f"{count:>8} {volume * float(np.mean(values)):>12.6f} {volume * std_error:>12.6f}")


if __name__ == "__main__":
    main()
