"""Command-line interface: run any registered experiment.

Usage::

    python -m repro list
    python -m repro run fig07 [--trials 30] [--seed 5] [--jobs 4]
    python -m repro run all
    python -m repro fabric-worker HOST:PORT
    python -m repro store-compact results/campaign.jsonl

``--jobs`` (or the ``REPRO_JOBS`` environment variable) fans Monte Carlo
trials out over that many local sweep-fabric workers (forked, so it
needs the fork start method); results are identical at any job count
because every trial is a pure function of its derived seed.  ``run``
reads every ``REPRO_*`` variable once, into the run options
(:mod:`repro.options`), before an experiment starts.

``--resume-dir`` (or ``REPRO_RESUME_DIR``) journals every completed trial
to an on-disk result store, so a campaign killed mid-run — worker death,
Ctrl-C, power loss — restarts from its checkpoint and finishes
byte-identical to an uninterrupted run.  ``REPRO_CHAOS`` (see
:mod:`repro.stats.chaos`) deterministically injects worker crashes,
hangs, transient exceptions and fabric network faults to exercise that
recovery path.

``--fabric`` (or ``REPRO_FABRIC``) configures the sweep fabric
(:mod:`repro.stats.fabric`), at any job count: a coordinator leases task
chunks to fabric workers — locally spawned ones and/or ``fabric-worker``
processes on other hosts.  ``--progress`` (or ``REPRO_PROGRESS``) prints
a journal-backed status line while a campaign runs.
"""

from __future__ import annotations

import argparse
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'System Level Analysis of the "
                    "Bluetooth Standard' (DATE 2005)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list registered experiments")
    run_parser = subparsers.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment",
                            help="experiment id (e.g. fig07) or 'all'")
    run_parser.add_argument("--trials", type=int, default=None,
                            help="Monte Carlo trials per point")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="master seed")
    run_parser.add_argument("--jobs", type=int, default=None,
                            help="local fabric workers for Monte Carlo "
                                 "trials (0 = one per CPU; default "
                                 "sequential). "
                                 "The REPRO_JOBS environment variable, when "
                                 "set, overrides this flag — mirroring "
                                 "REPRO_TRIALS vs --trials")
    run_parser.add_argument("--resume-dir", default=None,
                            help="directory for on-disk result journals: "
                                 "completed trials are checkpointed there "
                                 "and skipped on restart, so a killed "
                                 "campaign resumes byte-identically "
                                 "(equivalent to setting REPRO_RESUME_DIR)")
    run_parser.add_argument("--fabric", nargs="?", const="on", default=None,
                            metavar="SPEC",
                            help="run on the sweep fabric as configured; "
                                 "the optional SPEC is a REPRO_FABRIC string, "
                                 "e.g. 'workers=4' or "
                                 "'bind=0.0.0.0:7919,workers=0' to serve "
                                 "external fabric-worker processes")
    run_parser.add_argument("--progress", nargs="?", const="1", default=None,
                            metavar="SECS",
                            help="print a journal-backed status line to "
                                 "stderr at most every SECS seconds "
                                 "(default 1; 0 turns the line off; "
                                 "equivalent to setting REPRO_PROGRESS)")

    worker_parser = subparsers.add_parser(
        "fabric-worker",
        help="join a fabric coordinator as a worker process")
    worker_parser.add_argument("address", metavar="HOST:PORT",
                               help="the coordinator's listen address")
    worker_parser.add_argument("--digest", default=None,
                               help="campaign-spec digest to insist on; a "
                                    "mismatched coordinator is refused "
                                    "(default: accept any campaign)")
    worker_parser.add_argument("--name", default=None,
                               help="worker name shown in coordinator logs "
                                    "(default: host-pid)")
    worker_parser.add_argument("--reconnects", type=int, default=8,
                               help="consecutive failed connection attempts "
                                    "before giving up (default 8)")

    compact_parser = subparsers.add_parser(
        "store-compact",
        help="rewrite a result journal dropping duplicate keys and any "
             "crash-truncated tail (the spec-digest header is preserved)")
    compact_parser.add_argument("path", metavar="JOURNAL",
                                help="path to the .jsonl result journal")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "fabric-worker":
        from repro.stats.fabric import worker_main
        return worker_main(args.address, digest=args.digest, name=args.name,
                           max_reconnects=args.reconnects)

    if args.command == "store-compact":
        from repro.stats.store import StoreError, compact_journal
        try:
            stats = compact_journal(args.path)
        except (OSError, StoreError) as error:
            print(f"store-compact: {error}", file=sys.stderr)
            return 2
        print(f"{args.path}: {stats['records']} records kept, "
              f"{stats['lines_dropped']} duplicate/stale lines dropped, "
              f"{stats['bytes_before']} -> {stats['bytes_after']} bytes")
        return 0

    from repro.experiments import EXPERIMENTS, run_experiment
    from repro.options import RunOptions, installed

    if args.command == "list":
        width = max(len(key) for key in EXPERIMENTS)
        for key, (_, description) in sorted(EXPERIMENTS.items()):
            print(f"{key.ljust(width)}  {description}")
        return 0

    # REPRO_TRIALS and REPRO_JOBS win over --trials and --jobs
    options = RunOptions.from_env(resume_dir=args.resume_dir or None,
                                  fabric=args.fabric, progress=args.progress)
    targets = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    with installed(options):
        for target in targets:
            started = time.time()
            try:
                result = run_experiment(target, **kwargs)
            except KeyError as error:
                print(error.args[0], file=sys.stderr)
                return 2
            print(result.to_table())
            print(f"[{target} in {time.time() - started:.1f}s]")
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
