#!/usr/bin/env python3
"""Print the calibration picture behind the default parameter set.

Reports, for the current defaults:
  * the deterministic VLC SNR at a few distances and the cutoff distance
    where it crosses the VLC SINR threshold,
  * the interference-free RF PRP (closed form) on a distance grid, next to
    the VLC 0/1 oracle, to locate the PRP crossover,
  * the predicted clear-weather LA mean rate at the 50 m and 250 m
    calibration endpoints (quick Monte Carlo).

Run after changing any channel default to see which calibration targets
move; docs/CALIBRATION.md explains how each knob was chosen.
"""

import argparse
import math
from dataclasses import replace

from rfvlc import (MODE_LA, ScenarioConfig, SweepSpec, db_to_linear,
                   prp_rf_closed_form, run_sweep, vlc_cutoff_distance, vlc_snr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20_000,
                        help="Monte Carlo trials for the rate endpoints")
    args = parser.parse_args()

    cfg = ScenarioConfig()
    theta_v = db_to_linear(cfg.sinr_threshold_vlc_db)

    print("== deterministic VLC link ==")
    for d in (30.0, 50.0, 80.0, 100.0, 122.0, 150.0):
        snr = vlc_snr(cfg.with_distance(d), "clear")
        print(f"  SNR({d:5.0f} m) = {snr:.4e}  ({10*math.log10(snr):7.2f} dB)")
    cutoff = vlc_cutoff_distance(cfg, "clear", theta_v)
    print(f"  threshold {cfg.sinr_threshold_vlc_db} dB -> cutoff d* = {cutoff:.2f} m")

    print("== interference-free RF PRP (closed form) vs VLC oracle ==")
    quiet = replace(cfg, lambda_density=0.0)
    for d in range(40, 261, 20):
        point = quiet.with_distance(float(d))
        p_rf = prp_rf_closed_form(point)
        p_v = int(vlc_snr(point, "clear") >= theta_v)
        print(f"  d = {d:3d} m: PRP_rf = {p_rf:.4f}   PRP_vlc = {p_v}")

    print("== clear-weather LA mean rate at the calibration endpoints ==")
    spec = SweepSpec(distances=(50.0, 250.0),
                     weathers=("clear",),
                     modes=(MODE_LA,), n_trials=args.trials, master_seed=1)
    for row in run_sweep(cfg, spec, "rate_mbps"):
        print(f"  R = {row.distance:5.0f} m: "
              f"{row.estimate.value:6.1f} Mbps "
              f"(+- {row.estimate.stderr:.2f})")
    print("  targets: 83.2 Mbps +- 25% at 50 m, 39.8 Mbps +- 25% at 250 m,")
    print("           PRP crossover inside [100, 140] m")


if __name__ == "__main__":
    main()
