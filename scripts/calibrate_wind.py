#!/usr/bin/env python3
"""Sweep wind strength against hover dispersion to pin preset values.

The outdoor/indoor presets are chosen so the simulated 2-sigma radial
dispersion lands near the reference flight numbers (18.66 cm outdoor,
10.55 cm indoor). Run this after touching dynamics, gains, or the
texture to re-check the operating points. Each point flies the outdoor
preset with the swept wind, seed and yaw rate set over it.

    PYTHONPATH=src python scripts/calibrate_wind.py --duration 300 --sigmas 0.3 0.35
"""

import argparse
import sys
import time

from flowhold.config import load_run_config
from flowhold.sim import run_episode
from flowhold.telemetry import dispersion_stats


def run_point(sigma: float, rate: float, seed: int, duration: float, yaw: float = 0.0):
    sim = {
        "texture_seed": seed,
        "wind_sigma": sigma,
        "wind_rate": rate,
        "yaw_rate": yaw,
        "duration": duration,
    }
    rc = load_run_config("outdoor", overrides={"sim": sim})
    t0 = time.time()
    records = run_episode(rc.sim, rc.gains, rc.tracker)
    report = dispersion_stats(records, rc.sim.settle_time, rc.sim.frame_size_cm)
    reacq = sum(1 for r in records if "reacquired" in r.events)
    losses = sum(1 for r in records if "feature_lost" in r.events)
    print(
        f"sigma={sigma:<5} rate={rate} seed={seed} yaw={yaw}: "
        f"two_sigma={report.two_sigma_radial:6.2f}cm "
        f"max_exc={report.max_excursion:6.2f}cm reacq={reacq} "
        f"loss_frames={losses} wall={time.time() - t0:5.1f}s",
        flush=True,
    )
    return report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--duration", type=float, default=300.0)
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.2, 0.3, 0.4])
    ap.add_argument("--rate", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--yaw", type=float, default=0.0)
    args = ap.parse_args()
    for sigma in args.sigmas:
        run_point(sigma, args.rate, args.seed, args.duration, args.yaw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
