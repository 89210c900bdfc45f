"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror what a user of the paper's flow would do:

``design``
    Run the design flow on a 0/1 trace (from a file or stdin) and print
    the machine; optionally emit VHDL/Verilog/DOT.
``customize``
    Profile a bundled benchmark, design per-branch custom predictors, and
    report the customized architecture's miss rate vs the baselines.
``figures``
    Regenerate a paper figure (fig1/fig2/fig4/fig5/fig67) and print it.
    fig2/fig5 also accept ``--source SPEC`` to run the figure over any
    registered trace source instead of a bundled benchmark.
``trace``
    Generate a branch trace from a registered ``TraceSource`` spec
    (``--source kmp:pattern=ab,text=iid``) and print it as a 0/1 stream
    (or ``--pcs`` lines); ``--list`` names the registered sources.
``selfcheck``
    Run the full reliability battery: oracle equivalence, cache round
    trip, parallel determinism, fault-injection smoke, metrics
    aggregation.
``bench``
    Run the benchmark-telemetry pass and write the schema-versioned
    ``BENCH_pipeline.json`` snapshot (see :mod:`repro.obs.bench`).
``serve``
    Serve the design flow over newline-delimited JSON/TCP on a
    supervised worker pool (see :mod:`repro.serve`): admission control
    with load shedding, circuit breakers, per-request deadlines, and
    graceful SIGTERM drain.  ``--oneshot FILE`` is the batch reference
    path: execute request lines in-process and print each canonical
    design payload.
``serve-router``
    Front a fleet of ``serve`` replicas with one endpoint (see
    :mod:`repro.serve.cluster`): lease-based membership with healthz
    probes and automatic eject/readmit, hedged dispatch after a
    P95-derived delay, single-flight coalescing of same-digest requests,
    and cluster-honest backpressure.  Speaks the same ``repro.serve/1``
    protocol, so clients need no changes.
``loadgen``
    Replay seeded concurrent synthetic clients against a running server
    (or router) over keep-alive connections and assert zero lost / zero
    incorrect responses (byte-compared against the batch reference).
``conformance``
    Differential-oracle conformance (see :mod:`repro.conformance`):
    ``run`` checks the fixed corpus stage-by-stage against brute-force
    oracles plus the golden vectors; ``fuzz`` runs a seeded fuzz session
    with a byte-identical replay file; ``regen`` rewrites
    ``tests/golden/*.json``; ``minimize`` delta-debugs a replay or
    counterexample file.

Observability (any command): ``--trace FILE`` appends one JSON line per
pipeline span to FILE (workers included); ``--profile`` prints a
per-stage wall-time summary and the unified counters after the command.

Durability (any command): ``--run-id ID`` journals every sweep under a
run directory so a killed command can be resumed; ``--resume ID`` is the
same flag spelled for the second invocation.  ``figures --all`` derives
a deterministic run id automatically, so a plain re-run after a crash
resumes by itself.  SIGINT/SIGTERM drain the worker pool, flush the
journal, and exit 130 with a resume hint instead of dying mid-write.

Examples::

    echo 000010001011110111101111 | python -m repro design --order 2
    python -m repro design --order 4 --trace-file trace.txt --vhdl out.vhd
    python -m repro design --order 4 --trace-file trace.txt --verify
    python -m repro customize gsm --branches 6
    python -m repro figures fig5 --benchmark ijpeg
    python -m repro trace --source kmp:pattern=ab,text=iid --length 4096
    python -m repro figures fig2 --source pybytecode:program=sort
    python -m repro --profile figures fig2 --benchmark gcc
    python -m repro --trace spans.jsonl figures fig5
    python -m repro bench --out BENCH_pipeline.json
    python -m repro serve --port 7477 --workers 4
    python -m repro serve-router --port 7478 \\
        --replicas 127.0.0.1:7477,127.0.0.1:7479
    python -m repro loadgen --port 7477 --clients 64 --requests 2 --wait 30
    echo '{"trace":"000010001011110111101111","order":2}' | \\
        python -m repro serve --oneshot -
    python -m repro conformance run
    python -m repro conformance fuzz --seed 7 --budget 50 --out-dir fuzz_out
    python -m repro conformance --regen
    python -m repro selfcheck

Failures inside the flow surface as structured ``ReproError`` messages
naming the failed stage (exit status 2) instead of raw tracebacks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.pipeline import design_predictor
from repro.synth.area import estimate_area
from repro.synth.verilog import generate_verilog
from repro.synth.vhdl import generate_vhdl


def _read_trace(path: Optional[str]) -> List[int]:
    if path:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            detail = exc.strerror or str(exc)
            raise SystemExit(f"cannot read trace file {path!r}: {detail}")
    else:
        text = sys.stdin.read()
    bits = [ch for ch in text if ch in "01"]
    if not bits:
        raise SystemExit("no 0/1 symbols found in the trace input")
    return [int(ch) for ch in bits]


def _positive_float(text: str) -> float:
    """argparse type for a number of seconds that must be above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _given(**fields):
    """The flags the user actually passed (argparse leaves the rest
    ``None``), so config dataclasses keep their own defaults."""
    return {name: value for name, value in fields.items() if value is not None}


def _cmd_design(args: argparse.Namespace) -> int:
    trace = _read_trace(args.trace_file)
    result = design_predictor(
        trace,
        order=args.order,
        bias_threshold=args.threshold,
        dont_care_fraction=args.dont_care,
        verify=args.verify,
    )
    if args.verify:
        print("verified       : machine proven equivalent to the oracle")
    print(f"trace length   : {len(trace)}")
    print(f"cover          : {' | '.join(result.cover_strings()) or '(empty)'}")
    print(f"regex          : {result.regex}")
    print(
        f"states         : nfa={result.nfa_states} dfa={result.dfa_states} "
        f"minimized={result.minimized_states} final={result.machine.num_states}"
    )
    print(result.machine.describe())
    if args.area:
        print(estimate_area(result.machine))
    if args.vhdl:
        with open(args.vhdl, "w") as handle:
            handle.write(generate_vhdl(result.machine))
        print(f"wrote {args.vhdl}")
    if args.verilog:
        with open(args.verilog, "w") as handle:
            handle.write(generate_verilog(result.machine))
        print(f"wrote {args.verilog}")
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(result.machine.to_dot())
        print(f"wrote {args.dot}")
    return 0


def _cmd_customize(args: argparse.Namespace) -> int:
    from repro.harness.branch_training import (
        collect_branch_models,
        design_branch_predictors,
        rank_branches_by_misses,
        rank_by_improvement,
    )
    from repro.predictors.base import format_rate, simulate_predictor
    from repro.predictors.custom import CustomBranchPredictor
    from repro.predictors.gshare import GSharePredictor
    from repro.predictors.local_global import LocalGlobalChooser
    from repro.predictors.xscale import XScalePredictor
    from repro.workloads.programs import branch_trace

    train = branch_trace(args.benchmark, "train", args.length)
    evaluation = branch_trace(args.benchmark, "eval", args.length)
    ranked = rank_branches_by_misses(train)
    models = collect_branch_models(train)
    designs = design_branch_predictors(
        models, [pc for pc, _ in ranked[: args.branches * 2]]
    )
    chosen = rank_by_improvement(train, designs, dict(ranked))[: args.branches]
    custom = CustomBranchPredictor.from_machines(
        {pc: designs[pc].machine for pc in chosen}
    )
    print(f"{'predictor':<14s} {'miss rate':>10s} {'area':>10s}")
    for predictor in (
        XScalePredictor(),
        custom,
        GSharePredictor(12),
        LocalGlobalChooser(10),
    ):
        stats = simulate_predictor(predictor, evaluation)
        print(
            f"{predictor.name:<14s} {format_rate(stats.miss_rate):>10s} "
            f"{predictor.area():>10.0f}"
        )
    return 0


def _figures_run_id(
    args: argparse.Namespace, *extra: str
) -> Optional[str]:
    """The run id figure sweeps journal under.

    ``--run-id``/``--resume`` win; otherwise ``--all`` (and ``--source``,
    which passes the canonical spec via ``extra``) derives a
    deterministic id from the figure name so a plain re-run of the same
    command after a crash resumes automatically (same id -> same
    journal).  Single-panel benchmark invocations are short enough that
    we don't journal them unless asked."""
    from repro.reliability import durability

    rid = durability.current_run_id()
    if rid is None and durability.durability_enabled():
        if extra:
            rid = durability.derive_run_id("figures", args.figure, *extra)
            durability.set_run_id(rid)
        elif args.all:
            rid = durability.derive_run_id("figures", args.figure, "all")
            durability.set_run_id(rid)
    if rid is not None:
        print(f"repro: run id {rid}", file=sys.stderr)
    return rid


def _resolved_source(args: argparse.Namespace):
    """Canonicalize ``--source``/``--length``/``--seed`` once, so run-id
    derivation, fingerprints, and generation all agree."""
    from repro.workloads.sources import (
        DEFAULT_LENGTH,
        DEFAULT_SEED,
        create_source,
    )

    source = create_source(args.source)
    length = DEFAULT_LENGTH if args.length is None else int(args.length)
    seed = DEFAULT_SEED if args.seed is None else int(args.seed)
    return source, source.spec_string(), length, seed


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure == "fig1":
        trace = [int(c) for c in "000010001011110111101111"]
        result = design_predictor(trace, order=2)
        print(result.summary())
        print(result.machine.describe())
    elif args.figure == "fig2":
        from repro.harness.fig2 import (
            run_fig2,
            run_fig2_benchmark,
            run_fig2_source,
        )

        if args.source:
            _source, spec_string, length, seed = _resolved_source(args)
            run_id = _figures_run_id(
                args, "source", spec_string, str(length), str(seed)
            )
            result = run_fig2_source(
                spec_string,
                length=length,
                seed=seed,
                gap_kmax=args.gap_k,
                run_id=run_id,
            )
            print(result.render())
        elif args.all:
            from repro.harness.reporting import write_report

            panels = run_fig2(
                gap_kmax=args.gap_k, run_id=_figures_run_id(args)
            )
            for benchmark, result in panels.items():
                print(write_report(f"fig2_{benchmark}.txt", result.render()))
        else:
            result = run_fig2_benchmark(
                args.benchmark or "gcc", gap_kmax=args.gap_k
            )
            print(result.render())
    elif args.figure == "fig4":
        from repro.harness.fig4 import run_fig4

        print(run_fig4(run_id=_figures_run_id(args)).render())
    elif args.figure == "fig5":
        from repro.harness.fig5 import (
            run_fig5,
            run_fig5_benchmark,
            run_fig5_source,
        )

        modern = not args.no_modern
        if args.source:
            _source, spec_string, length, seed = _resolved_source(args)
            result = run_fig5_source(
                spec_string, length=length, seed=seed, modern=modern
            )
            print(result.render())
        elif args.all:
            from repro.harness.reporting import write_report

            panels = run_fig5(modern=modern, run_id=_figures_run_id(args))
            for benchmark, result in panels.items():
                print(write_report(f"fig5_{benchmark}.txt", result.render()))
        else:
            result = run_fig5_benchmark(args.benchmark or "gsm", modern=modern)
            print(result.render())
    elif args.figure == "fig67":
        from repro.harness.fig67 import run_fig67

        for name, example in run_fig67(run_id=_figures_run_id(args)).items():
            print(f"== {name} ==")
            print(example.render())
    else:
        raise SystemExit(f"unknown figure {args.figure!r}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.sources import list_sources, source_trace

    if args.list:
        for name in list_sources():
            print(name)
        return 0
    if not args.source:
        raise SystemExit("repro trace needs --source SPEC (or --list)")
    _source, spec_string, length, seed = _resolved_source(args)
    trace = source_trace(spec_string, length, seed)
    if args.pcs:
        body = "".join(
            f"{pc} {bit}\n" for pc, bit in zip(trace.pcs, trace.outcomes)
        )
    else:
        body = "".join(str(bit) for bit in trace.outcomes) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(body)
    taken = sum(trace.outcomes)
    print(
        f"repro: source {spec_string}: {len(trace)} events, "
        f"{len(set(trace.pcs))} static pcs, taken rate "
        f"{taken / len(trace):.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.reliability.selfcheck import run_selfcheck

    return run_selfcheck(verbose=not args.quiet)


def _cmd_conformance(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.conformance import diff as diff_mod
    from repro.conformance import fuzz as fuzz_mod
    from repro.conformance import golden as golden_mod

    action = "regen" if args.regen else args.action
    out_dir = Path(args.out_dir)
    golden_dir = Path(args.golden_dir) if args.golden_dir else None

    if action == "regen":
        for path in golden_mod.write_golden_vectors(golden_dir):
            print(f"wrote {path}")
        return 0

    if action == "fuzz":
        report = fuzz_mod.run_fuzz(
            seed=args.seed, budget=args.budget, out_dir=str(out_dir)
        )
        print(report.summary())
        for divergence, artifact in zip(
            report.divergences, report.counterexample_files
        ):
            print()
            print(divergence.describe())
            print(f"counterexample: {artifact}")
        return 0 if report.ok else 1

    if action == "minimize":
        if not args.replay:
            raise SystemExit("conformance minimize needs --replay FILE")
        cases = fuzz_mod.load_replay(Path(args.replay))
        failures = 0
        for case in cases:
            divergence = case.run()
            if divergence is None:
                print(f"case {case.index} ({case.family}): ok")
                continue
            failures += 1
            minimized = diff_mod.minimize_counterexample(divergence)
            print(minimized.describe())
        return 1 if failures else 0

    # action == "run": the fixed corpus, every stage against its oracle,
    # then the golden vectors.
    failures = 0
    for case in golden_mod.golden_corpus():
        divergence = diff_mod.check_conformance(
            case.trace,
            order=case.order,
            bias_threshold=case.bias_threshold,
            dont_care_fraction=case.dont_care_fraction,
        )
        if divergence is None:
            print(f"conform {case.name:<24s} ok")
            continue
        failures += 1
        minimized = diff_mod.minimize_counterexample(divergence)
        print(f"conform {case.name:<24s} FAIL ({minimized.stage})")
        print(minimized.describe())
        out_dir.mkdir(parents=True, exist_ok=True)
        artifact = out_dir / f"counterexample_run_{case.name}.json"
        artifact.write_text(
            json.dumps(minimized.to_json(), sort_keys=True, indent=2) + "\n"
        )
        print(f"counterexample: {artifact}")
    issues = golden_mod.check_golden_vectors(golden_dir)
    for issue in issues:
        failures += 1
        print(f"golden  {issue}")
    if not issues:
        print("golden  vectors ok")
    oracle_issues = golden_mod.check_oracle_corpus()
    for issue in oracle_issues:
        failures += 1
        print(f"optimal {issue}")
    if not oracle_issues:
        print("optimal oracle bound ok")
    # Check #11: KMP analytic sources must hit their closed-form rates.
    from repro.conformance.kmp_check import check_kmp_corpus

    kmp_issues = check_kmp_corpus()
    for issue in kmp_issues:
        failures += 1
        print(f"kmp     {issue}")
    if not kmp_issues:
        print("kmp     closed-form rates ok")
    source_issues = golden_mod.check_golden_sources(golden_dir)
    for issue in source_issues:
        failures += 1
        print(f"sources {issue}")
    if not source_issues:
        print("sources golden vectors ok")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import collect_bench_snapshot, write_bench_snapshot

    scale = {}
    if args.loads:
        scale["fig2_loads"] = args.loads
    if args.branches:
        scale["fig5_branches"] = args.branches
    snapshot = collect_bench_snapshot(scale or None)
    write_bench_snapshot(args.out, snapshot)
    print(f"wrote {args.out}")
    for entry in snapshot["timings"]:
        print(f"  {entry['name']:<20s} {entry['seconds']:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import os
    import signal

    from repro.serve.config import ServeConfig

    if args.oneshot is not None:
        # The batch reference path: execute request lines in-process and
        # print the canonical design payload, one line per request --
        # exactly the bytes a served `ok` response carries in `payload`.
        from repro.serve.jobs import DesignRequest, execute_request
        from repro.serve.protocol import canonical_json

        if args.oneshot == "-":
            text = sys.stdin.read()
        else:
            with open(args.oneshot, "r", encoding="utf-8") as handle:
                text = handle.read()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            request = DesignRequest.from_payload(json.loads(line))
            payload = execute_request(request)
            sys.stdout.write(canonical_json(payload).decode("utf-8") + "\n")
        return 0

    config = ServeConfig(
        **_given(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_limit=args.queue,
            deadline_s=args.deadline,
        )
    )

    async def _serve() -> int:
        from repro.obs.metrics import metrics
        from repro.serve.server import DesignServer

        server = DesignServer(config)
        await server.start()
        loop = asyncio.get_running_loop()

        def _begin_drain() -> None:
            # Replaces the CLI's raise-KeyboardInterrupt handler while
            # the loop runs: a polite kill drains instead of aborting.
            asyncio.ensure_future(server.shutdown())

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _begin_drain)
            except (NotImplementedError, ValueError, OSError):
                pass
        print(
            json.dumps(
                {
                    "event": "listening",
                    "host": config.host,
                    "port": server.port,
                    "pid": os.getpid(),
                    "workers": config.workers,
                    "queue_limit": config.queue_limit,
                },
                sort_keys=True,
            ),
            flush=True,
        )
        await server.serve_until_shutdown()
        # Final metrics flush: one machine-readable line for the log.
        print(
            json.dumps(
                {"event": "drained", "counters": metrics().snapshot()},
                sort_keys=True,
            ),
            flush=True,
        )
        return 0

    return asyncio.run(_serve())


def _cmd_serve_router(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import os
    import signal

    from repro.serve.cluster.config import RouterConfig, parse_replica_spec

    try:
        config = RouterConfig(
            **_given(
                host=args.host,
                port=args.port,
                replicas=parse_replica_spec(args.replicas or ""),
                queue_limit=args.queue,
                probe_interval_s=args.probe_interval,
                eject_after=args.eject_fails,
                retry_budget=args.retries,
                hedge_floor_s=args.hedge_floor,
                hedge_cap_s=args.hedge_cap,
            )
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if not config.replicas:
        print(
            "repro: error: serve-router needs --replicas host:port[,...]",
            file=sys.stderr,
        )
        return 2

    async def _serve() -> int:
        from repro.obs.metrics import metrics
        from repro.serve.cluster.router import ClusterRouter

        router = ClusterRouter(config)
        await router.start()
        loop = asyncio.get_running_loop()

        def _begin_drain() -> None:
            asyncio.ensure_future(router.shutdown())

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _begin_drain)
            except (NotImplementedError, ValueError, OSError):
                pass
        print(
            json.dumps(
                {
                    "event": "listening",
                    "role": "router",
                    "host": config.host,
                    "port": router.port,
                    "pid": os.getpid(),
                    "replicas": [f"{h}:{p}" for h, p in config.replicas],
                    "queue_limit": config.queue_limit,
                },
                sort_keys=True,
            ),
            flush=True,
        )
        await router.serve_until_shutdown()
        print(
            json.dumps(
                {"event": "drained", "counters": metrics().snapshot()},
                sort_keys=True,
            ),
            flush=True,
        )
        return 0

    return asyncio.run(_serve())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve.loadgen import run_loadgen, wait_until_ready

    async def _run() -> int:
        server = None
        host, port = args.host, args.port
        if args.selfhost:
            from repro.serve.config import ServeConfig
            from repro.serve.server import DesignServer

            server = DesignServer(ServeConfig(host="127.0.0.1", port=0))
            await server.start()
            host, port = "127.0.0.1", server.port
        try:
            if args.wait and not await wait_until_ready(
                host, port, timeout_s=args.wait
            ):
                print(
                    f"repro: error: server at {host}:{port} never became "
                    "ready",
                    file=sys.stderr,
                )
                return 2
            summary = await run_loadgen(
                host,
                port,
                clients=args.clients,
                requests=args.requests,
                seed=args.seed,
                check=not args.no_check,
                timeout_s=args.timeout,
            )
        finally:
            if server is not None:
                await server.shutdown()
        text = json.dumps(summary, indent=2, sort_keys=True)
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return 0 if summary["passed"] else 1

    return asyncio.run(_run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated design of FSM predictors (ISCA 2001 reproduction)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweeps (default: $REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute traces and designs instead of using the on-disk cache",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="append pipeline span events to FILE as JSON lines "
        "(sets $REPRO_TRACE_FILE, so pool workers trace too)",
    )
    parser.add_argument(
        "--run-id",
        metavar="ID",
        default=None,
        help="journal sweeps under this run id (see DESIGN.md: Durability)",
    )
    parser.add_argument(
        "--resume",
        metavar="ID",
        default=None,
        help="resume a journaled run: replay completed shards, compute "
        "the rest (alias of --run-id for the second invocation)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-time summary and the unified "
        "counters after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser("design", help="design a predictor from a 0/1 trace")
    design.add_argument("--order", type=int, default=4, help="history length N")
    design.add_argument("--threshold", type=float, default=0.5)
    design.add_argument("--dont-care", type=float, default=0.01)
    design.add_argument("--trace-file", help="file of 0/1 symbols (default: stdin)")
    design.add_argument("--area", action="store_true", help="print the area report")
    design.add_argument(
        "--verify",
        action="store_true",
        help="prove the machine equivalent to the direct-construction oracle",
    )
    design.add_argument("--vhdl", help="write VHDL to this path")
    design.add_argument("--verilog", help="write Verilog to this path")
    design.add_argument("--dot", help="write GraphViz DOT to this path")
    design.set_defaults(func=_cmd_design)

    customize = sub.add_parser("customize", help="customize a benchmark's predictor")
    customize.add_argument("benchmark")
    customize.add_argument("--branches", type=int, default=6)
    customize.add_argument("--length", type=int, default=60_000)
    customize.set_defaults(func=_cmd_customize)

    figures = sub.add_parser("figures", help="regenerate a paper figure")
    figures.add_argument("figure", choices=["fig1", "fig2", "fig4", "fig5", "fig67"])
    figures.add_argument("--benchmark")
    figures.add_argument(
        "--all",
        action="store_true",
        help="run every benchmark of the figure and write results/*.txt",
    )
    figures.add_argument(
        "--gap-k",
        type=int,
        default=None,
        metavar="K",
        help=(
            "fig2: gap-to-optimal column vs the exact optimal K-state "
            "predictor (0 disables; default 4)"
        ),
    )
    figures.add_argument(
        "--no-modern",
        action="store_true",
        help="fig5: omit the modern-regime tage/perceptron series",
    )
    figures.add_argument(
        "--source",
        metavar="SPEC",
        default=None,
        help="fig2/fig5: run the figure over a registered trace source "
        "(e.g. kmp:pattern=ab,text=iid); see `repro trace --list`",
    )
    figures.add_argument(
        "--length",
        type=int,
        default=None,
        help="--source event count (default 20000)",
    )
    figures.add_argument(
        "--seed",
        type=int,
        default=None,
        help="--source generation seed (default 0)",
    )
    figures.set_defaults(func=_cmd_figures)

    trace_cmd = sub.add_parser(
        "trace",
        help="generate a branch trace from a registered source spec",
    )
    trace_cmd.add_argument(
        "--source",
        metavar="SPEC",
        default=None,
        help="source spec: name or name:key=value,... "
        "(kmp:pattern=ab,text=iid)",
    )
    trace_cmd.add_argument(
        "--length",
        type=int,
        default=None,
        help="number of branch events (default 20000)",
    )
    trace_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        help="generation seed (default 0)",
    )
    trace_cmd.add_argument(
        "--pcs",
        action="store_true",
        help="emit 'pc bit' lines instead of a bare 0/1 stream",
    )
    trace_cmd.add_argument(
        "--out", metavar="FILE", help="write the trace to FILE, not stdout"
    )
    trace_cmd.add_argument(
        "--list",
        action="store_true",
        help="list the registered source names and exit",
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="run the reliability battery (oracle, cache, pool, faults)",
    )
    selfcheck.add_argument(
        "--quiet", action="store_true", help="suppress per-check output"
    )
    selfcheck.set_defaults(func=_cmd_selfcheck)

    conformance = sub.add_parser(
        "conformance",
        help="differential-oracle conformance: run | fuzz | regen | minimize",
    )
    conformance.add_argument(
        "action",
        nargs="?",
        default="run",
        choices=["run", "fuzz", "regen", "minimize"],
        help="run: fixed corpus + golden vectors; fuzz: seeded fuzz "
        "session; regen: rewrite tests/golden/*.json; minimize: replay "
        "and delta-debug a case file",
    )
    conformance.add_argument(
        "--regen",
        action="store_true",
        help="alias for the regen action (python -m repro conformance --regen)",
    )
    conformance.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fuzz seed (default: $REPRO_FUZZ_SEED, else 0)",
    )
    conformance.add_argument(
        "--budget",
        type=int,
        default=None,
        help="fuzz case count (default: $REPRO_FUZZ_BUDGET, else 25)",
    )
    conformance.add_argument(
        "--out-dir",
        default=".",
        help="where replay files and counterexamples are written (default: .)",
    )
    conformance.add_argument(
        "--replay",
        metavar="FILE",
        help="replay/counterexample file for the minimize action",
    )
    conformance.add_argument(
        "--golden-dir",
        metavar="DIR",
        default=None,
        help="golden-vector directory (default: $REPRO_GOLDEN_DIR, "
        "else tests/golden/)",
    )
    conformance.set_defaults(func=_cmd_conformance)

    serve = sub.add_parser(
        "serve",
        help="serve the design flow over JSON/TCP (supervised worker pool)",
    )
    serve.add_argument("--host", default=None, help="listen address")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen port (0 = ephemeral; default 7477)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool worker processes (default 2)",
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=None,
        help="admission queue depth before load shedding (default 64)",
    )
    serve.add_argument(
        "--deadline",
        type=_positive_float,
        default=None,
        help="default per-request deadline in seconds (default 30)",
    )
    serve.add_argument(
        "--oneshot",
        metavar="FILE",
        default=None,
        help="batch mode: execute request JSON lines from FILE (or '-' "
        "for stdin) in-process and print each canonical design payload",
    )
    serve.set_defaults(func=_cmd_serve)

    router = sub.add_parser(
        "serve-router",
        help="front N serve replicas with one endpoint (probes, hedging, "
        "request coalescing, aggregated backpressure)",
    )
    router.add_argument("--host", default=None, help="listen address")
    router.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen port (0 = ephemeral; default 7478)",
    )
    router.add_argument(
        "--replicas",
        default=None,
        metavar="HOST:PORT[,...]",
        help="replica endpoints (required)",
    )
    router.add_argument(
        "--queue",
        type=int,
        default=None,
        help="router admission bound before load shedding (default 256)",
    )
    router.add_argument(
        "--probe-interval",
        type=_positive_float,
        default=None,
        metavar="S",
        help="seconds between replica healthz probes (default 1.0)",
    )
    router.add_argument(
        "--eject-fails",
        type=int,
        default=None,
        help="consecutive probe failures before a replica is ejected "
        "(default 2)",
    )
    router.add_argument(
        "--retries",
        type=int,
        default=None,
        help="upstream dispatch attempts per request (default 3)",
    )
    router.add_argument(
        "--hedge-floor",
        type=_positive_float,
        default=None,
        metavar="S",
        help="minimum hedge delay in seconds (default 0.05)",
    )
    router.add_argument(
        "--hedge-cap",
        type=_positive_float,
        default=None,
        metavar="S",
        help="maximum hedge delay and pre-sample default, in seconds; "
        "not below --hedge-floor (default 2.0)",
    )
    router.set_defaults(func=_cmd_serve_router)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay seeded concurrent clients against a running server",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7477)
    loadgen.add_argument("--clients", type=int, default=64)
    loadgen.add_argument(
        "--requests", type=int, default=2, help="requests per client"
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--no-check",
        action="store_true",
        help="skip byte-comparing responses against the in-process "
        "batch reference",
    )
    loadgen.add_argument(
        "--out", metavar="FILE", help="write the summary JSON to FILE"
    )
    loadgen.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="S",
        help="poll healthz for up to S seconds before starting",
    )
    loadgen.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="per-attempt response read timeout in seconds (default 120)",
    )
    loadgen.add_argument(
        "--selfhost",
        action="store_true",
        help="boot an in-process server on an ephemeral port and load it",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    bench = sub.add_parser(
        "bench",
        help="run the telemetry pass and write BENCH_pipeline.json",
    )
    bench.add_argument(
        "--out",
        default="BENCH_pipeline.json",
        help="snapshot path (default: BENCH_pipeline.json)",
    )
    bench.add_argument(
        "--loads", type=int, default=None, help="fig2 load-stream length"
    )
    bench.add_argument(
        "--branches", type=int, default=None, help="fig5 branch-trace length"
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    import os
    import signal

    args = build_parser().parse_args(argv)
    run_id = getattr(args, "resume", None) or getattr(args, "run_id", None)
    if args.resume and args.run_id and args.resume != args.run_id:
        print(
            "repro: error: --resume and --run-id name different runs",
            file=sys.stderr,
        )
        return 2
    if run_id is not None:
        from repro.reliability import durability

        try:
            durability.set_run_id(durability.sanitize_run_id(run_id))
        except ValueError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2

    def _on_sigterm(signum, frame):
        # Funnel SIGTERM into the KeyboardInterrupt path so a polite kill
        # gets the same drain-pool/flush-journal/resume-hint treatment as
        # Ctrl-C.  (SIGKILL can't be caught; the journal's write-ahead
        # ordering is what makes that case safe.)
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        pass  # not the main thread, or an exotic platform
    if args.jobs is not None:
        # parallel_map reads REPRO_JOBS at call time; setting it here makes
        # the flag apply to every sweep the command runs (including ones in
        # worker processes, which inherit the environment).
        os.environ["REPRO_JOBS"] = str(max(1, args.jobs))
    if args.no_cache:
        from repro.perf.cache import set_cache_enabled

        set_cache_enabled(False)
        os.environ["REPRO_CACHE"] = "0"  # propagate to pool workers
    if args.trace:
        # The environment (not a runtime flag) arms the JSONL sink so
        # pool workers, which inherit it, append their spans too.
        os.environ["REPRO_TRACE_FILE"] = args.trace
    if args.profile:
        from repro.obs.tracing import reset_tracing, set_tracing

        reset_tracing()
        set_tracing(True)
    from repro.reliability.errors import ReproError

    try:
        status = args.func(args)
    except ReproError as exc:
        # Structured failure: one actionable line naming the stage, not a
        # traceback.  Exit status 2 distinguishes it from success (0) and
        # a failed selfcheck (1).
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # parallel_map has already reaped its workers on the way out, and
        # every completed shard was journaled as it landed; nothing is
        # torn, so the run can pick up where it stopped.
        from repro.reliability import durability

        rid = durability.current_run_id()
        hint = (
            f"; resume with: --resume {rid}"
            if rid is not None
            else ""
        )
        print(
            f"repro: interrupted -- completed shards are journaled{hint}",
            file=sys.stderr,
        )
        return 130
    if args.profile:
        from repro.harness.reporting import format_table
        from repro.obs.metrics import metrics
        from repro.obs.tracing import render_profile, set_tracing

        set_tracing(False)
        print()
        print(render_profile())
        rows = metrics().rows()
        if rows:
            print()
            print(format_table(["counter", "value"], rows, title="Counters"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
