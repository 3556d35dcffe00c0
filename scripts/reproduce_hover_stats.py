#!/usr/bin/env python3
"""Reproduce the hover-dispersion table from the outdoor/indoor presets.

Runs both 300-second presets and prints the simulated two-sigma radial
dispersion and hold diameter next to the reference flight values
(18.66 cm / 96 cm outdoor, 10.55 cm / 79 cm indoor for a 58 cm frame).
"""

import sys
import time

from flowhold.config import load_run_config
from flowhold.sim import run_episode
from flowhold.telemetry import dispersion_stats

REFERENCE = {"outdoor": (18.66, 96.0), "indoor": (10.55, 79.0)}


def main() -> int:
    print(f"{'preset':<10} {'2sigma(cm)':>10} {'ref':>7} {'diameter(cm)':>13} {'ref':>7} {'wall(s)':>8}")
    for preset, (ref_sigma, ref_diam) in REFERENCE.items():
        rc = load_run_config(preset)
        t0 = time.time()
        records = run_episode(rc.sim, rc.gains, rc.tracker)
        report = dispersion_stats(
            records, settle_time=rc.sim.settle_time, frame_size_cm=rc.sim.frame_size_cm
        )
        print(
            f"{preset:<10} {report.two_sigma_radial:>10.2f} {ref_sigma:>7.2f} "
            f"{report.hold_diameter:>13.2f} {ref_diam:>7.0f} {time.time() - t0:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
