"""Command-line interface: ``profess list`` / ``profess run <id>``.

Examples::

    profess list
    profess run fig5
    profess run fig13 --scale 128 --requests 20000
    profess run all --out results/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import NoReturn

from repro.experiments.registry import (
    EXPERIMENTS,
    UnknownExperimentError,
    resolve_experiment_ids,
    run_experiment,
)
from repro.experiments.runner import (
    DEFAULT_MULTI_REQUESTS,
    DEFAULT_SCALE,
    DEFAULT_SINGLE_REQUESTS,
    ExperimentRunner,
)


def _positive_count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _directory(value: str) -> Path:
    path = Path(value)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(
            f"{value!r} exists and is not a directory"
        )
    return path


def _output_file(value: str) -> Path:
    path = Path(value)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {str(path.parent)!r} does not exist"
        )
    return path


def _nonnegative_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return count


def _timeout_seconds(value: str) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError("must be > 0 seconds")
    return seconds


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every simulating subcommand."""
    parser.add_argument(
        "--jobs",
        type=_positive_count,
        default=1,
        help="worker processes for independent runs (1 = in-process serial)",
    )
    parser.add_argument(
        "--cache-dir",
        type=_directory,
        default=None,
        help="directory for the persistent result cache (shared across "
        "invocations; repeat runs become cache hits)",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_count,
        default=1,
        metavar="N",
        help="re-attempts per run for transient failures (worker death, "
        "timeout, OS errors); simulation errors are never retried",
    )
    parser.add_argument(
        "--run-timeout",
        type=_timeout_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per simulation; an overdue run counts as "
        "a (retryable) failure and its worker is replaced",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the run journal beside --cache-dir: completed work "
        "is served from the cache, failed keys are re-attempted",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first failed run instead of "
        "finishing the wave and reporting a failure table",
    )
    _add_backend_flag(parser)


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mem-backend",
        choices=("auto", "python", "compiled"),
        default="auto",
        help="memory-channel backend: 'python' (the interpreted "
        "reference), 'compiled' (the C channel core, built with the "
        "system C compiler on first use; an error if it cannot be "
        "built), or 'auto' (compiled when it builds, python otherwise); "
        "results are byte-identical across backends and the choice "
        "never affects cache keys",
    )


class _Parser(argparse.ArgumentParser):
    """Reports bad input on one line; ``-h`` still prints the usage."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = _Parser(
        prog="profess",
        description="ProFess (HPCA 2018) reproduction experiment harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    policies_parser = subparsers.add_parser(
        "policies",
        help="list registered migration policies and composition axes",
        description="Print every policy in the composable registry "
        "(repro.policies.registry) with its base algorithm and RSM "
        "guidance, plus the axis grammar accepted by 'profess run "
        "--policy' (base[+rsm][+swap:STYLE][+bypass:RATE][+stc:POLICY]).",
    )
    policies_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the listing as markdown tables (README source)",
    )

    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment",
        nargs="+",
        help="experiment id(s) (e.g. fig5 table4) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        type=int,
        default=DEFAULT_SCALE,
        help="capacity divisor vs the paper system (power of two)",
    )
    run_parser.add_argument(
        "--requests",
        type=_positive_count,
        default=DEFAULT_MULTI_REQUESTS,
        help="trace length per program (multiprogram runs)",
    )
    run_parser.add_argument(
        "--single-requests",
        type=_positive_count,
        default=DEFAULT_SINGLE_REQUESTS,
        help="trace length per program (single-program runs)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="SPEC",
        help="restrict policy-sweep experiments (e.g. ext-policy-matrix) "
        "to these composable policy specs (repeatable; e.g. "
        "mdm+rsm+bypass:0.05+stc:lfu); see 'profess policies'",
    )
    run_parser.add_argument(
        "--validate-every",
        type=_nonnegative_count,
        default=0,
        metavar="N",
        help="audit all simulator invariants (sim.validation) every N "
        "cycles during each run; corruption aborts the run instead of "
        "poisoning results (0 = off; does not affect cache keys)",
    )
    run_parser.add_argument(
        "--out", type=_directory, default=None, help="directory for .txt reports"
    )
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions "
        "(profiles the driving process; use --jobs 1)",
    )
    _add_execution_flags(run_parser)

    report_parser = subparsers.add_parser(
        "report",
        help="run every paper artifact and generate EXPERIMENTS.md",
    )
    report_parser.add_argument(
        "--scale", type=int, default=DEFAULT_SCALE
    )
    report_parser.add_argument(
        "--requests", type=_positive_count, default=DEFAULT_MULTI_REQUESTS
    )
    report_parser.add_argument(
        "--single-requests",
        type=_positive_count,
        default=DEFAULT_SINGLE_REQUESTS,
    )
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--output", type=_output_file, default=Path("EXPERIMENTS.md")
    )
    report_parser.add_argument(
        "--store", type=_directory, default=None, help="directory for JSON results"
    )
    report_parser.add_argument("--verbose", action="store_true")
    _add_execution_flags(report_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="synthesize a program trace to a .npz file"
    )
    trace_parser.add_argument("program", help="Table 9 program name")
    trace_parser.add_argument("output", type=_output_file)
    trace_parser.add_argument(
        "--requests", type=_positive_count, default=50_000
    )
    trace_parser.add_argument(
        "--scale", type=_positive_count, default=DEFAULT_SCALE
    )
    trace_parser.add_argument("--seed", type=int, default=0)

    char_parser = subparsers.add_parser(
        "characterize", help="summarize a trace file (or a program name)"
    )
    char_parser.add_argument(
        "trace", help="path to a .npz trace, or a Table 9 program name"
    )
    char_parser.add_argument(
        "--requests", type=_positive_count, default=50_000
    )
    char_parser.add_argument(
        "--scale", type=_positive_count, default=DEFAULT_SCALE
    )
    char_parser.add_argument("--seed", type=int, default=0)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or maintain a persistent result cache directory",
        description="Report entry and quarantine counts for a "
        "--cache-dir, optionally deleting quarantined entries "
        "(--prune-quarantine) or every entry (--clear).  Quarantine "
        "holds corrupt/stale payloads moved aside for diagnosis; nothing "
        "expires them automatically, so long-lived shared caches need "
        "the occasional prune.",
    )
    cache_parser.add_argument(
        "--cache-dir",
        type=_directory,
        required=True,
        help="the cache directory to inspect (same flag as 'profess run')",
    )
    cache_parser.add_argument(
        "--prune-quarantine",
        action="store_true",
        help="delete quarantined entries and their .reason.txt notes",
    )
    cache_parser.add_argument(
        "--clear",
        action="store_true",
        help="delete every cached result (quarantine is left alone "
        "unless --prune-quarantine is also given)",
    )

    golden_parser = subparsers.add_parser(
        "golden",
        help="regenerate the golden determinism scenarios and digest them",
        description="Run every golden scenario (tests/golden/) and print "
        "its SHA-256 digest.  --check diffs the regenerated results "
        "byte-for-byte against the checked-in blobs; --out writes a "
        "digest JSON for the CI cross-version determinism gate.",
    )
    golden_parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="DIR",
        help="golden blob directory to verify against (e.g. tests/golden)",
    )
    golden_parser.add_argument(
        "--out",
        type=_output_file,
        default=None,
        metavar="FILE",
        help="write {python, scenarios: {name: sha256}} JSON to FILE",
    )
    _add_backend_flag(golden_parser)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repro static-analysis pass (hot-path/contract rules)",
        description="AST-based project lint (DESIGN.md Sec. 11): H-rules "
        "protect the kernel fast path via the hot-path manifest, C-rules "
        "enforce API contracts. "
        "Exit 0 when clean, 1 when findings remain, 2 on usage errors.",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids/prefixes to enable (e.g. C,H201)",
    )
    lint_parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids/prefixes to disable",
    )
    lint_parser.add_argument(
        "--exclude",
        action="append",
        type=Path,
        default=[],
        metavar="PATH",
        help="file or directory subtree to skip (repeatable; used to "
        "keep deliberately-broken lint fixtures out of a tests/ sweep)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its description and exit",
    )
    return parser


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        scale=args.scale,
        multi_requests=args.requests,
        single_requests=args.single_requests,
        seed=args.seed,
        verbose=getattr(args, "verbose", False),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        validate_every=getattr(args, "validate_every", 0),
        policies=getattr(args, "policy", None),
        mem_backend=getattr(args, "mem_backend", "auto"),
        retries=getattr(args, "retries", 1),
        run_timeout=getattr(args, "run_timeout", None),
        fail_fast=getattr(args, "fail_fast", False),
        resume=getattr(args, "resume", False),
    )


def _run(args: argparse.Namespace) -> int:
    from repro.common.errors import PolicySpecError, UnknownPolicyError
    from repro.exec import SweepFailure, format_failure_table
    from repro.experiments.paper_report import format_run_stats
    from repro.policies.registry import canonical_policy

    # Validate the complete request before simulating anything: a typo
    # at the end of an id list must not waste the runs before it.
    try:
        ids = resolve_experiment_ids(args.experiment)
    except UnknownExperimentError as error:
        unknown = ", ".join(map(repr, error.unknown))
        print(
            f"unknown experiment(s) {unknown}; try 'profess list'",
            file=sys.stderr,
        )
        return 2
    try:
        for spec in args.policy or ():
            canonical_policy(spec)
    except (PolicySpecError, UnknownPolicyError) as error:
        print(f"bad --policy: {error}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    summary = runner.resume_summary()
    if summary is not None:
        print(summary)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    for experiment_id in ids:
        started = time.time()
        try:
            result = run_experiment(experiment_id, runner)
        except SweepFailure as error:
            print(f"[{experiment_id} aborted: fail-fast]", file=sys.stderr)
            print(format_failure_table(error.failures), file=sys.stderr)
            return 1
        report = result.render()
        elapsed = time.time() - started
        print(report)
        print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{experiment_id}.txt").write_text(report + "\n")
    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    if args.verbose:
        from repro.perf.profile import peak_rss_mb

        print(format_run_stats(runner))
        rss = peak_rss_mb()
        if rss > 0:
            print(f"parent peak RSS: {rss:,.1f} MiB")
    if runner.failures:
        print(format_failure_table(runner.failures), file=sys.stderr)
        print(
            f"{len(runner.failures)} run(s) failed; rerun with --resume "
            "and --cache-dir to retry only the failures",
            file=sys.stderr,
        )
        return 1
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.experiments.paper_report import (
        format_run_stats,
        generate_experiments_md,
    )
    from repro.experiments.store import ResultStore

    runner = _make_runner(args)
    store = ResultStore(args.store) if args.store is not None else None
    started = time.time()
    generate_experiments_md(runner, args.output, store=store)
    print(f"wrote {args.output} in {time.time() - started:.0f}s")
    if args.verbose:
        print(format_run_stats(runner))
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.traces.generator import synthesize_trace

    trace = synthesize_trace(
        args.program, args.requests, scale=args.scale, seed=args.seed
    )
    trace.save(args.output)
    print(
        f"wrote {args.output}: {len(trace)} requests, "
        f"MPKI {trace.mpki:.1f}, writes {trace.write_fraction:.1%}"
    )
    return 0


def _characterize(args: argparse.Namespace) -> int:
    from repro.cpu.trace import Trace
    from repro.traces.generator import synthesize_trace
    from repro.traces.spec import PROGRAM_PROFILES
    from repro.traces.stats import characterize

    if args.trace in PROGRAM_PROFILES:
        trace = synthesize_trace(
            args.trace, args.requests, scale=args.scale, seed=args.seed
        )
    else:
        trace = Trace.load(args.trace)
    summary = characterize(trace)
    print(f"requests:                  {summary.requests}")
    print(f"instructions:              {summary.instructions}")
    print(f"MPKI:                      {summary.mpki:.2f}")
    print(f"write fraction:            {summary.write_fraction:.1%}")
    print(f"footprint:                 {summary.footprint_bytes / 1024:.0f} KB")
    print(f"distinct 2-KB blocks:      {summary.distinct_blocks}")
    print(f"mean accesses per block:   {summary.mean_accesses_per_block:.1f}")
    print(f"top-decile access share:   {summary.top_decile_access_share:.1%}")
    print(f"same-block request pairs:  {summary.same_block_fraction:.1%}")
    reuse = summary.median_block_reuse_distance
    print(
        "median block reuse dist:   "
        + (f"{reuse:.0f}" if reuse is not None else "n/a (streaming)")
    )
    return 0


def _cache(args: argparse.Namespace) -> int:
    from repro.exec.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached result(s)")
    if args.prune_quarantine:
        pruned = cache.prune_quarantine()
        print(f"pruned {pruned} quarantined entr(ies)")
    print(f"cache {args.cache_dir}: {len(cache)} entr(ies), "
          f"{cache.quarantine_count()} quarantined")
    return 0


def _golden(args: argparse.Namespace) -> int:
    import json
    import platform

    from repro.sim.golden import check_against_blobs, golden_digests

    digests = golden_digests(mem_backend=args.mem_backend)
    for name, digest in sorted(digests.items()):
        print(f"{name:<16} sha256:{digest}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    "python": platform.python_version(),
                    "scenarios": digests,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {args.out}")
    if args.check is not None:
        problems = check_against_blobs(args.check, mem_backend=args.mem_backend)
        if problems:
            for name, problem in sorted(problems.items()):
                print(f"GOLDEN MISMATCH: {name}: {problem}", file=sys.stderr)
            return 1
        print(f"all scenarios byte-identical to {args.check}")
    return 0


def _lint(args: argparse.Namespace) -> int:
    from repro.lint import RULES, LintError, lint_paths

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, description in sorted(RULES.items()):
            print(f"{rule.ljust(width)}  {description}")
        return 0
    paths = args.paths or [Path(__file__).parent]
    try:
        findings = lint_paths(
            paths, select=args.select, ignore=args.ignore, exclude=args.exclude
        )
    except LintError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        counts: dict[str, int] = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        summary = ", ".join(
            f"{rule} x{count}" for rule, count in sorted(counts.items())
        )
        print(f"{len(findings)} finding(s): {summary}", file=sys.stderr)
    return 1 if findings else 0


def _policies(args: argparse.Namespace) -> int:
    from repro.common.config import STC_REPLACEMENTS, SWAP_STYLES
    from repro.policies.registry import guided_bases, iter_registered

    entries = list(iter_registered())
    guided = ", ".join(guided_bases())
    swap_styles = ", ".join(SWAP_STYLES)
    stc_policies = ", ".join(STC_REPLACEMENTS)
    if args.markdown:
        print("| name | base | guidance | description |")
        print("| --- | --- | --- | --- |")
        for entry in entries:
            guidance = "RSM" if entry.guidance else "—"
            print(
                f"| `{entry.name}` | {entry.base} | {guidance} "
                f"| {entry.description} |"
            )
        print()
        print("| axis | values | default |")
        print("| --- | --- | --- |")
        print(f"| `+rsm` | guided bases: {guided} | off |")
        print(f"| `+swap:STYLE` | {swap_styles} | policy default |")
        print("| `+bypass:RATE` | [0, 1) | 0 (off) |")
        print(f"| `+stc:POLICY` | {stc_policies} | lru |")
    else:
        width = max(len(entry.name) for entry in entries)
        for entry in entries:
            tag = " [rsm]" if entry.guidance else ""
            print(f"{entry.name.ljust(width)}  {entry.description}{tag}")
        print()
        print(
            "compose axes with '+': "
            "base[+rsm][+swap:STYLE][+bypass:RATE][+stc:POLICY]"
        )
        print(f"  rsm guidance available for: {guided}")
        print(f"  swap styles: {swap_styles}")
        print(f"  stc replacement: {stc_policies}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Bad input that gets past the parser (e.g. a ``--scale`` the paper
    system cannot divide by) surfaces as a :class:`ReproError`: one
    line on stderr and exit 2, never a traceback.
    """
    from repro.common.errors import ReproError
    from repro.exec import SweepFailure, format_failure_table
    from repro.mem.backend import resolve_backend

    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "mem_backend", None) is not None:
            # Resolve once up front: an explicit 'compiled' that cannot
            # be built is a usage error, not a wave of failed runs.
            resolve_backend(args.mem_backend)
        return _dispatch(args)
    except SweepFailure as error:
        # Runs failed (--fail-fast): not a usage error.
        print(format_failure_table(error.failures), file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"profess {args.command}: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        width = max(len(i) for i in EXPERIMENTS)
        for experiment_id, spec in EXPERIMENTS.items():
            print(f"{experiment_id.ljust(width)}  {spec.description}")
        return 0
    if args.command == "policies":
        return _policies(args)
    if args.command == "report":
        return _report(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "characterize":
        return _characterize(args)
    if args.command == "cache":
        return _cache(args)
    if args.command == "golden":
        return _golden(args)
    if args.command == "lint":
        return _lint(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
