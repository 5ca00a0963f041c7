#!/usr/bin/env python3
"""Pin the calibration rows the emulator's cost table backs at zero drift.

The emulator charges MLSim's Figure 6 table (``Params::ap1000_plus()``),
so six of ``bench_sweep --calibrate``'s eight derived parameters must
come back equal to the table's values. Any stage that charges something
else moves one of these rows. ``network_msg_time`` and
``recv_dma_set_time`` are not checked: the emulator's data path streams
each byte three times and charges ring deposits per byte, where
Figure 7 charges one network term and a fixed receive DMA setup.

Usage: test_calibration.py PATH/TO/bench_sweep
Exit status 0 when every pinned row is within the bound, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

PINNED = [
    "put_enqueue_time",
    "put_dma_set_time",
    "network_delay_time",
    "recv_search_time",
    "recv_copy_time",
    "barrier_time",
]
BOUND_PCT = 0.01


def main():
    if len(sys.argv) != 2:
        print("usage: test_calibration.py PATH/TO/bench_sweep")
        return 2
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "calib.json")
        subprocess.run([sys.argv[1], "--sweep=", "--calibrate", "--quick",
                        f"--json-out={out}"], check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as f:
            calib = json.load(f)["calib"]
    bad = 0
    for param in PINNED:
        row = calib[param]
        drift = row["drift_pct"]
        ok = abs(drift) < BOUND_PCT
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'}  {param}: table "
              f"{row['hand']} us, emulator {row['derived']} us, "
              f"drift {drift:+.3g}%")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
