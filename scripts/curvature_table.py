#!/usr/bin/env python3
"""Tabulate the measured geometry of every buildable level.

For each level and field: homothety factor of the pullback metric, the
effective squared radius of the induced image metric, scalar curvature,
squared norm of the second fundamental form, and the mean curvature
residual.  Values are averaged over random on-sphere points; the spread
columns certify they are constants of the embedding.
"""

import argparse

import numpy as np

from veronese import constants, construct, geometry, measure


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = (f"{'field':7} {'n':>2} {'d':>2} {'lambda':>12} {'rho^2':>10} "
              f"{'s':>12} {'|alpha|^2':>12} {'|H| max':>9} {'spread':>9}")
    print(header)
    print("-" * len(header))
    for field, cap in constants.LEVEL_CAPS["audit"].items():
        for n in range(1, cap + 1):
            map_ = construct.build(n, field)
            pts = measure.quotient_samples(n, field, args.points, args.seed + n)
            geo = geometry.curvature_field(map_, pts)
            lam = float(np.mean(geo["lambda"]))
            d = n if field == "real" else 2 * n
            spread = max(float(np.ptp(geo["lambda"])),
                         float(np.ptp(geo["scalar_curvature_gauss"])),
                         float(np.ptp(geo["alpha_norm_sq"])))
            print(f"{field:7} {n:>2} {d:>2} {lam:>12.8f} "
                  f"{lam * constants.radius(n) ** 2:>10.6f} "
                  f"{np.mean(geo['scalar_curvature_gauss']):>12.8f} "
                  f"{np.mean(geo['alpha_norm_sq']):>12.8f} "
                  f"{np.max(geo['mean_curvature_norm']):>9.1e} {spread:>9.1e}")


if __name__ == "__main__":
    main()
