"""Command line front end: run scenarios, check invariants, replay failures.

Three subcommands:

* ``setchain bench`` — run named scenarios (presets or single cells of the
  safety matrix), or the whole safety matrix, across a seed range and write
  JSON-lines reports plus a CSV summary;
* ``setchain check`` — drive either the scenario invariant suite or the
  two-adversary-model trace-mapping suite across many seeds, saving a
  reproduction bundle for the first mapping failure;
* ``setchain replay`` — re-run a saved bundle and report the verdict.

Exit status is zero only when every run was clean.  The SETCHAIN_SEED
environment variable supplies the default seed when ``--seeds`` is not
given.  ``bench`` and ``check --suite properties`` share their runs
among as many worker processes as this process may use CPUs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench, byz_model


def _parse_seeds(spec: str) -> range:
    """Seed ranges: "12" means 0..11, "3..7" means 3..7 inclusive.  A spec
    that names no seed is a usage error, not a vacuous pass."""
    lo, sep, hi = spec.partition("..")
    seeds = range(int(lo), int(hi) + 1) if sep else range(int(lo))
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {spec!r} names no seed")
    return seeds


def _parse_length(spec: str) -> int:
    """A trace length; below 1 a run checks nothing, so it is a usage error."""
    length = int(spec)
    if length < 1:
        raise argparse.ArgumentTypeError(f"trace length {length} is below 1")
    return length


def _report_line(r: bench.RunReport) -> str:
    state = "ok" if r.ok else f"VIOLATIONS={len(r.property_violations)}"
    return (f"{r.scenario} seed={r.seed} adds={r.adds_stamped_final}"
            f"/{r.adds_attempted} epochs={r.epochs_final} "
            f"msgs={r.messages_total} {state}")


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.matrix:
        scenarios = bench.safety_matrix()
    else:
        names = args.scenario or ["stock"]
        scenarios = [bench.named_scenario(name) for name in names]
    reports = bench.run_matrix(scenarios, args.seeds,
                               len(os.sched_getaffinity(0)))
    for report in reports:
        print(_report_line(report))
        for violation in report.property_violations:
            print(f"  {violation}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        bench.write_reports_jsonl(outdir / "reports.jsonl", reports)
        bench.write_summary_csv(outdir / "summary.csv", reports)
        print(f"wrote {len(reports)} reports to {outdir}/")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_check_properties(seeds: range, args: argparse.Namespace) -> int:
    scenarios = bench.safety_matrix()
    reports = bench.run_matrix(scenarios, seeds, len(os.sched_getaffinity(0)))
    bad = [r for r in reports if not r.ok]
    by_name: dict[str, int] = {}
    for report in reports:
        by_name.setdefault(report.scenario, 0)
        if not report.ok:
            by_name[report.scenario] += 1
    for name, failures in sorted(by_name.items()):
        runs = len(seeds)
        verdict = "ok" if failures == 0 else f"{failures}/{runs} FAILED"
        print(f"{name}: {runs} runs {verdict}")
    for report in bad:
        for violation in report.property_violations:
            print(f"  {report.scenario} seed={report.seed}: {violation}")
    return 0 if not bad else 1


def _cmd_check_byzmodel(seeds: range, args: argparse.Namespace) -> int:
    scales = ((4, 1), (7, 2))
    failures = 0
    for n, f in scales:
        failed = 0
        for direction in byz_model.DIRECTIONS:
            for seed in seeds:
                report = byz_model.trace_check(direction, n, f, seed,
                                               length=args.length)
                if report.ok:
                    continue
                failed += 1
                print(f"{direction} n={n} f={f} seed={seed}: "
                      f"{report.reason} at event {report.index}")
                if args.out:
                    bundle = byz_model.bundle_failure(direction, n, f, seed,
                                                      report)
                    path = Path(args.out)
                    byz_model.save_bundle(path, bundle)
                    print(f"saved reproduction bundle to {path}")
                    return 1
        runs = len(byz_model.DIRECTIONS) * len(seeds)
        verdict = "both directions ok" if failed == 0 else f"{failed}/{runs} FAILED"
        print(f"n={n} f={f}: {len(seeds)} seeds, {verdict}")
        failures += failed
    return 0 if failures == 0 else 1


def _cmd_check(args: argparse.Namespace) -> int:
    if args.suite == "properties":
        return _cmd_check_properties(args.seeds, args)
    return _cmd_check_byzmodel(args.seeds, args)


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        bundle = byz_model.load_bundle(args.counterexample)
        report = byz_model.replay_bundle(bundle)
    except ValueError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    print(f"{bundle['direction']} n={bundle['n']} f={bundle['f']} "
          f"seed={bundle['seed']}: recorded "
          f"{bundle['reason']!r} at event {bundle['index']}")
    if report.ok:
        print("replay: mapping now succeeds — failure did not reproduce")
        return 1
    print(f"replay: {report.reason} at event {report.index}")
    reproduced = (report.reason == bundle["reason"]
                  and report.index == bundle["index"])
    print("replay: failure reproduced" if reproduced
          else "replay: failed differently than recorded")
    return 0 if reproduced else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setchain",
        description="Drive, check, and replay simulated setchain clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run scenarios and write reports")
    p_bench.add_argument("--scenario", action="append",
                         choices=bench.SCENARIO_NAMES, metavar="NAME",
                         help="preset or safety-matrix cell, e.g. firehose or "
                              "safety-n10-fast-havoc (repeatable; default: stock)")
    p_bench.add_argument("--matrix", action="store_true",
                         help="run the full safety matrix instead")
    p_bench.add_argument("--seeds", type=_parse_seeds,
                         help='seed range, e.g. "10" or "0..99"')
    p_bench.add_argument("--out", help="directory for reports.jsonl and summary.csv")
    p_bench.set_defaults(fn=_cmd_bench)

    p_check = sub.add_parser("check", help="run an invariant suite")
    p_check.add_argument("--suite", choices=("properties", "byzmodel"),
                         required=True)
    p_check.add_argument("--seeds", type=_parse_seeds,
                         help='seed range, e.g. "10" or "0..99"')
    p_check.add_argument("--length", type=_parse_length, default=200,
                         help="events per generated trace (byzmodel)")
    p_check.add_argument("--out", help="file for a failure bundle (byzmodel)")
    p_check.set_defaults(fn=_cmd_check)

    p_replay = sub.add_parser("replay", help="re-run a saved failure bundle")
    p_replay.add_argument("--counterexample", required=True,
                          help="bundle file written by check --suite byzmodel")
    p_replay.set_defaults(fn=_cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seeds" in args and args.seeds is None:  # SETCHAIN_SEED, else seed 0
        try:
            base = bench.seed_from_env(0)
        except ValueError as exc:
            parser.error(str(exc))
        args.seeds = range(base, base + 1)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
