"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --runs 10 [--workload low_power ...]

Runs ``run.py --trace 0`` once per seed ``0 .. runs-1`` for each workload,
from the root of a checkout, and prints every end-to-end metric's median,
quartiles and quartile spread (as a share of the median) next to the
bound ``BENCHMARK.json`` fixes for it.  A spread above a third of its bound
(``setup_s`` excepted) is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    flagged = 0
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect result", file=sys.stderr)
                flagged += 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{metric}={entry['value']:.6g}"
                for metric, entry in result["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = layers.quartile_spread(series)
            steady = metric["name"] == "setup_s" \
                or spread < metric["bound"] / 3
            flagged += not steady
            print(f"{name:20s} {metric['name']:16s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f} "
                  f"bound {metric['bound']}{'' if steady else '  UNSTEADY'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
