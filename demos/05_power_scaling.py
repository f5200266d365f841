#!/usr/bin/env python3
"""Power scaling of the flat-top gain.

The deliverable gain of a flat-top design grows linearly with the number of
surface elements and inversely with the covered beamwidth (an array's gain
is inversely proportional to its beam solid angle, and the captured power
grows with the aperture). We run the scaling probe over a small grid of
(element count, beamwidth) cells and check both trends on the achieved
in-band mean. The table lands in ./demo_scaling.

Run:  python demos/05_power_scaling.py
"""

import csv

from risbeam.harness import run_scaling_probe
from risbeam.scenario import ScenarioConfig

config = ScenarioConfig.from_dict({
    "seed": 0,
    "cp_length": 4,
    "optimizer": {"num_starts": 1, "inner_max_iters": 150, "outer_max_iters": 10},
    "scaling": {"element_counts": [24, 48], "beamwidths_deg": [40.0, 20.0],
                "center_deg": 115.0, "num_seeds": 2, "paths": 3, "streams": 2,
                "bs_antennas": 16},
})
report = run_scaling_probe(config, "demo_scaling")

print(f"{'elements':>9} {'beamwidth':>10} {'seed':>5} {'target':>8} "
      f"{'achieved':>9} {'ripple':>7}")
with open("demo_scaling/scaling.csv", newline="") as fh:
    for r in csv.DictReader(fh):
        print(f"{r['num_elements']:>9} {float(r['beamwidth_deg']):>8.0f}deg "
              f"{r['seed']:>5} {float(r['target_flat_power']):>8.0f} "
              f"{float(r['achieved_flat_mean']):>9.1f} {float(r['ripple_db']):>5.2f}dB")

mean = {(c["num_elements"], c["beamwidth_deg"]): c["mean_achieved"]
        for c in report["payload"]["cell_means"]}
print(f"\ndoubling elements (24 -> 48 at 40 deg): gain x{mean[(48, 40)] / mean[(24, 40)]:.2f}")
print(f"halving beamwidth (40 -> 20 deg at 24 elements): gain x{mean[(24, 20)] / mean[(24, 40)]:.2f}")
print("both ratios sit near 2, the linear-in-elements / inverse-in-beamwidth law")
