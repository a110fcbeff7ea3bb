"""Command-line interface for the reproduction package.

Subcommands
-----------
``run``
    Run a declarative experiment spec (JSON) through the
    :class:`repro.experiments.Session` pipeline with artifact caching.
``spec``
    Emit a template experiment spec to edit and feed back into ``run``.
``sweep``
    Run a multiplier x epsilon robustness sweep and print the heat-map
    (a shorthand for a one-attack ``run`` on LeNet-5).
``screen``
    Run the paper's error-resilience screening of candidate multipliers.
``multipliers``
    List the multiplier library with error metrics and energy figures.
``attacks``
    List the attack registry (the paper's Table I).
``report``
    Generate EXPERIMENTS.md from the benchmark results directory.
``verify``
    Audit the artifact store: re-hash every artifact against its recorded
    payload SHA-256, quarantine corrupted entries, sweep crashed writers'
    temp files and expired leases.
``serve``
    Run the robustness evaluation service: an HTTP server exposing
    experiment submission (with request coalescing), SSE progress
    streams, micro-batched single-sample queries, ``/healthz`` and
    ``/metrics``.

Examples::

    python -m repro.cli spec --name fig4a --attacks BIM_linf > fig4a.json
    python -m repro.cli run --spec fig4a.json --workers auto
    python -m repro.cli sweep --attack BIM_linf --multipliers M1,M4,M8 --samples 40
    python -m repro.cli report --results benchmarks/results --output EXPERIMENTS.md

``run``, ``sweep`` and ``serve`` take ``--workers``: the number of
threads that craft adversarial suites (a positive int or ``auto``).
Training and evaluation are serial, and results are invariant to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.version import __version__


def add_store_url_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--store-url`` option.

    Selects the remote store backend behind the local artifact cache
    (``file://``, ``mem://``, ``sim://``); every subcommand that opens a
    store routes through this helper so the flag behaves identically
    everywhere.
    """
    parser.add_argument(
        "--store-url",
        default=None,
        metavar="URL",
        help="remote store backend URL — file:///path, mem://name or "
        "sim://name?latency_ms=&error_rate= (default: $REPRO_STORE_URL; "
        "empty = local-only)",
    )


def add_workers_argument(parser: argparse.ArgumentParser, default: str = None) -> None:
    """Attach the shared ``--workers`` option.

    The raw value (``"auto"`` or an int spelling) is resolved by
    ``repro.nn.runtime.resolve_workers`` downstream — every subcommand that
    crafts adversarial suites routes through this one helper so the flag
    behaves identically everywhere.
    """
    parser.add_argument(
        "--workers",
        default=default,
        help="threads crafting adversarial examples, each on its own copy "
        "of the source model: a positive int or 'auto' (one per core); "
        "training and evaluation are serial, and results are invariant to it",
    )


def _progress_printer(event) -> None:
    print(f"[{event.stage}:{event.status}] {event.detail}")


def _print_spec_error(exc) -> None:
    """Print a structured spec-validation failure (field path + message)."""
    where = exc.path or "<spec>"
    print(f"invalid spec at {where}: {exc.reason}", file=sys.stderr)
    print(json.dumps(exc.to_dict(), sort_keys=True), file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import format_robustness_grid, format_transfer_table
    from repro.experiments import ExperimentSpec, Session, SpecValidationError

    try:
        spec = ExperimentSpec.load(args.spec)
    except SpecValidationError as exc:
        _print_spec_error(exc)
        return 2
    session = Session(
        store=args.store,
        workers=args.workers,
        progress=_progress_printer if args.verbose else None,
        require_cached=True if args.require_cached else None,
        checkpoint_every=args.checkpoint_every,
        store_url=args.store_url,
    )
    result = session.run(spec)

    source = "artifact store" if result.from_cache else "computed"
    print(f"experiment {spec.name!r} ({spec.kind}): {source} in {result.elapsed_s:.2f}s")
    for source_name, accuracy in sorted(result.source_accuracies.items()):
        print(f"  source {source_name}: clean test accuracy {accuracy * 100.0:.1f}%")
    for grid in result.grids:
        print()
        print(format_robustness_grid(grid, title=f"{spec.name}: {grid.attack_key}"))
    if result.study is not None:
        print()
        for key, comparison in sorted(result.study.comparisons.items()):
            gains = comparison.quantization_gain()
            print(
                f"  {key:10s} mean quantization gain: "
                f"{sum(gains) / len(gains):+.2f} points"
            )
        print(
            f"  overall mean quantization gain: "
            f"{result.study.mean_quantization_gain():+.2f} points"
        )
    if result.table is not None:
        datasets = sorted({cell.dataset for cell in result.table.cells})
        victims = list(dict.fromkeys(cell.victim for cell in result.table.cells))
        print()
        print(f"transferability ({result.table.attack_key}, eps={result.table.epsilon}):")
        print(format_transfer_table(result.table.cells, datasets, victims))
    stats = session.store.stats
    print(
        f"\nartifact store {session.store.root}: "
        f"{stats.hits} hit(s), {stats.misses} miss(es), {stats.puts} put(s)"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.experiments import (
        AttackSpec,
        ExperimentSpec,
        ModelSpec,
        SweepSpec,
        VictimSpec,
    )

    spec = ExperimentSpec(
        name=args.name,
        kind=args.kind,
        model=ModelSpec(
            architecture=args.architecture,
            dataset=args.dataset,
            n_train=args.train,
            n_test=max(args.samples, 300),
            epochs=args.epochs,
        ),
        victims=VictimSpec(multipliers=tuple(args.multipliers.split(","))),
        attacks=tuple(AttackSpec(attack=key) for key in args.attacks.split(",")),
        sweep=SweepSpec(
            epsilons=tuple(float(value) for value in args.epsilons.split(",")),
            n_samples=args.samples,
        ),
    )
    text = spec.to_json()
    if args.output and args.output != "-":
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output} (spec hash {spec.content_hash()[:16]})")
    else:
        print(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import format_robustness_grid
    from repro.experiments import ModelSpec, Session, panel_spec

    spec = panel_spec(
        f"cli_sweep_{args.attack}",
        attacks=[args.attack],
        multipliers=args.multipliers.split(","),
        model=ModelSpec(
            architecture="lenet5",
            dataset="mnist",
            n_train=args.train,
            n_test=300,
            epochs=args.epochs,
        ),
        epsilons=[float(value) for value in args.epsilons.split(",")],
        n_samples=args.samples,
    )
    session = Session(workers=args.workers)
    result = session.run(spec)
    print(format_robustness_grid(result.grids[0]))
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    from repro.experiments import ModelSpec, Session
    from repro.multipliers.selection import select_resilient_multipliers

    session = Session()
    trained = session.resolve_model(
        ModelSpec(
            architecture="lenet5",
            dataset="mnist",
            n_train=args.train,
            n_test=300,
            epochs=args.epochs,
        )
    )
    dataset = trained.dataset
    report = select_resilient_multipliers(
        trained.model,
        args.candidates.split(","),
        dataset.train.images[:128],
        dataset.test.images[: args.samples],
        dataset.test.labels[: args.samples],
        accuracy_threshold_percent=args.threshold,
    )
    print(f"accuracy threshold: {report.threshold_percent:.1f}%")
    for result in report.results:
        status = "keep" if result.accepted else "drop"
        print(
            f"  [{status}] {result.name:>16}  MAE={result.mae_percent:6.3f}%  "
            f"accuracy={result.clean_accuracy_percent:5.1f}%"
        )
    return 0


def _cmd_multipliers(args: argparse.Namespace) -> int:
    from repro.multipliers import (
        energy_saving_percent,
        error_reports,
        list_multipliers,
        paper_label,
    )

    names = args.names.split(",") if args.names else list_multipliers()
    reports = error_reports(names)
    header = (
        f"{'name':>16} {'label':>6} {'MAE%':>8} {'WCE%':>8} {'bias%':>8} "
        f"{'err-prob':>9} {'saving%':>8}"
    )
    print(header)
    print("-" * len(header))
    for report in reports:
        label = paper_label(report.name, "lenet") or paper_label(report.name, "alexnet") or "-"
        print(
            f"{report.name:>16} {label:>6} {report.mae_percent:>8.3f} "
            f"{report.wce_percent:>8.2f} {report.mean_error_percent:>8.3f} "
            f"{report.error_probability:>9.3f} "
            f"{energy_saving_percent(report.name):>8.1f}"
        )
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.attacks import attack_table

    print(f"{'key':>10} {'attack':>32} {'type':>10} {'norm':>6}")
    print("-" * 62)
    for metadata in attack_table():
        key = f"{metadata.short_name}_{metadata.norm}"
        print(f"{key:>10} {metadata.name:>32} {metadata.attack_type:>10} {metadata.norm:>6}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments import ArtifactStore

    store = ArtifactStore(args.store, store_url=args.store_url)
    findings = store.verify(repair=not args.no_repair)
    entries = store.entries()
    print(f"artifact store {store.root}: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
    if not findings:
        print("verify: clean (every payload matches its recorded hash)")
        return 0
    for finding in findings:
        action = "quarantined" if finding.quarantined else "found"
        print(f"  [{action}] {finding.kind}/{finding.digest[:16]}: {finding.problem}")
    print(f"verify: {len(findings)} problem(s) {'repaired' if not args.no_repair else 'found'}")
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report_generator import write_experiments_markdown

    content = write_experiments_markdown(args.results, args.output)
    print(f"wrote {args.output} ({len(content.splitlines())} lines)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.service import ServiceApp

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    app = ServiceApp(
        store=args.store,
        store_url=args.store_url,
        workers=args.job_workers,
        queue_depth=args.queue_depth,
        session_workers=args.workers,
        max_batch=args.max_batch,
        drain_timeout_s=args.drain_timeout,
    )
    app.run(host=args.host, port=args.port)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AxDNN adversarial-robustness reproduction toolkit"
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    run = subparsers.add_parser(
        "run", help="run a declarative experiment spec with artifact caching"
    )
    run.add_argument("--spec", required=True, help="path to an experiment spec JSON file")
    run.add_argument(
        "--store",
        default=None,
        help="artifact store root (default: $REPRO_ARTIFACT_DIR or ~/.cache/repro)",
    )
    add_store_url_argument(run)
    run.add_argument("--output", default="", help="also write the result JSON here")
    run.add_argument(
        "--require-cached",
        action="store_true",
        help="fail instead of training/crafting (assert the store serves the run)",
    )
    run.add_argument(
        "--verbose", action="store_true", help="print per-stage cache hit/compute events"
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a training checkpoint every N epochs so an interrupted "
        "run resumes bit-identically (default: $REPRO_CHECKPOINT_EVERY)",
    )
    add_workers_argument(run)
    run.set_defaults(func=_cmd_run)

    spec = subparsers.add_parser(
        "spec", help="emit an experiment spec template for `run`"
    )
    spec.add_argument("--name", default="experiment")
    spec.add_argument(
        "--kind", default="panel", choices=["panel", "quantization", "transfer"]
    )
    spec.add_argument("--architecture", default="lenet5")
    spec.add_argument("--dataset", default="mnist")
    spec.add_argument("--attacks", default="BIM_linf", help="comma-separated attack keys")
    spec.add_argument(
        "--multipliers",
        default="M1,M2,M3,M4,M5,M6,M7,M8,M9",
        help="comma-separated multiplier labels",
    )
    spec.add_argument("--epsilons", default="0,0.05,0.1,0.25,0.5")
    spec.add_argument("--samples", type=int, default=60)
    spec.add_argument("--train", type=int, default=1500)
    spec.add_argument("--epochs", type=int, default=4)
    spec.add_argument("--output", default="-", help="output path ('-' for stdout)")
    spec.set_defaults(func=_cmd_spec)

    sweep = subparsers.add_parser("sweep", help="run a robustness sweep on LeNet-5")
    sweep.add_argument("--attack", default="BIM_linf")
    sweep.add_argument("--multipliers", default="M1,M4,M8")
    sweep.add_argument("--epsilons", default="0,0.05,0.1,0.25,0.5")
    sweep.add_argument("--samples", type=int, default=40)
    sweep.add_argument("--train", type=int, default=1500)
    sweep.add_argument("--epochs", type=int, default=4)
    add_workers_argument(sweep, default="auto")
    sweep.set_defaults(func=_cmd_sweep)

    screen = subparsers.add_parser(
        "screen", help="error-resilience screening of candidate multipliers"
    )
    screen.add_argument("--candidates", default="M1,M2,M3,M4,M5,M6,M7,M8,M9")
    screen.add_argument("--threshold", type=float, default=90.0)
    screen.add_argument("--samples", type=int, default=60)
    screen.add_argument("--train", type=int, default=1500)
    screen.add_argument("--epochs", type=int, default=4)
    screen.set_defaults(func=_cmd_screen)

    mult = subparsers.add_parser("multipliers", help="list the multiplier library")
    mult.add_argument("--names", default="", help="comma-separated subset to show")
    mult.set_defaults(func=_cmd_multipliers)

    attacks = subparsers.add_parser(
        "attacks", help="list the paper's ten Table I attacks (the attack registry)"
    )
    attacks.set_defaults(func=_cmd_attacks)

    report = subparsers.add_parser("report", help="generate EXPERIMENTS.md from benchmark results")
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.set_defaults(func=_cmd_report)

    verify = subparsers.add_parser(
        "verify", help="audit the artifact store and quarantine corrupted entries"
    )
    verify.add_argument(
        "--store",
        default=None,
        help="artifact store root (default: $REPRO_ARTIFACT_DIR or ~/.cache/repro)",
    )
    add_store_url_argument(verify)
    verify.add_argument(
        "--no-repair",
        action="store_true",
        help="report problems without quarantining or sweeping debris",
    )
    verify.set_defaults(func=_cmd_verify)

    serve = subparsers.add_parser(
        "serve", help="run the robustness evaluation HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--store",
        default=None,
        help="artifact store root (default: $REPRO_ARTIFACT_DIR or ~/.cache/repro)",
    )
    add_store_url_argument(serve)
    serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="experiment jobs run concurrently (the worker pool width)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="queued jobs beyond the pool before submissions get 429",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch size cap for /v1/query",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for accepted jobs on SIGTERM before giving up",
    )
    add_workers_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
