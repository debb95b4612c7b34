#!/usr/bin/env python3
"""Mini version of the paper's Figs. 6-8: how channel noise affects
piconet creation.

Sweeps a few BER points and prints, per point, the inquiry completion time
and the page phase's success rate — showing the paper's headline: the page
phase, not inquiry, is the noise bottleneck.

Run:  python examples/noisy_inquiry.py            (couple of minutes)
      REPRO_TRIALS=3 python examples/noisy_inquiry.py   (quick look)
"""

import os

from repro.api import Session
from repro.experiments.common import paper_config
from repro.stats.estimators import mean_with_ci, wilson_interval
from repro.stats.montecarlo import derive_seed
from repro.stats.tables import format_table

TRIALS = int(os.environ.get("REPRO_TRIALS", "8"))
BERS = [(0.0, "0"), (1 / 100, "1/100"), (1 / 60, "1/60"), (1 / 30, "1/30")]
SEED = 2005


def main() -> None:
    rows = []
    for point, (ber, label) in enumerate(BERS):
        inquiry_times = []
        page_ok = 0
        for trial in range(TRIALS):
            # one seed per (point, trial): the same table on every run
            seed = derive_seed(SEED, trial, stream=point)
            session = Session(config=paper_config(ber=ber, seed=seed))
            inquirer = session.add_device("inquirer")
            scanner = session.add_device("scanner")
            result = session.run_inquiry(inquirer, scanner, timeout_slots=8192)
            if result.success:
                inquiry_times.append(result.duration_slots)

            # page under the paper profile (bit-exact access codes)
            session2 = Session(config=paper_config(ber=ber, seed=seed + 1,
                                                   sync_threshold=0))
            master = session2.add_device("master")
            slave = session2.add_device("slave")
            page = session2.run_page(master, slave)
            page_ok += page.success
        mean = mean_with_ci(inquiry_times)
        success = wilson_interval(page_ok, TRIALS)
        rows.append([label, f"{mean.mean:.0f}",
                     f"{(1 - success.p) * 100:.0f}%"])
    print(format_table(
        ["BER", "inquiry mean TS", "page failure"],
        rows,
        title=f"Noise vs piconet creation ({TRIALS} trials/point)"))
    print("\npaper: inquiry ~1556 TS and robust; page collapses by BER 1/30")


if __name__ == "__main__":
    main()
