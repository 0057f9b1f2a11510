"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      registered algorithms
``run``       one MIS execution on a graph spec, printed summary
``estimate``  Monte-Carlo join probabilities + inequality factor
``serve``     estimation service: JSON requests on stdin → results on stdout
``batch``     estimation service over a JSON-lines request file
``trace``     export a ``--trace-file`` span tree as Chrome/Perfetto JSON
``top``       live terminal dashboard over a ``--stats-file``
``explain``   render a result file's convergence trace (why it stopped)
``evidence``  list the pooled evidence plane recorded in a ``--stats-file``
``health``    evaluate SLO health rules; exit 0 ok / 1 warn / 2 crit
``bench``     deterministic count suite → ``BENCH_<sha>.json`` artifact,
              gated against a baseline with ``--compare``
``loadgen``   open-loop load on a ``serve --tcp`` front end; reports counts
``graph``     convert/inspect on-disk graphs (``.npz``/``.reprograph``/SNAP)
``table1``    regenerate Table I
``figure4``   regenerate Figure 4 (ASCII CDF panels)
``star``      the §I star demonstration
``cone``      the §VIII lower-bound sweep
``bounds``    Theorems 3/8/13/17 checks
``rounds``    round-complexity measurement (faithful layer)
``optimal``   exact optimal fairness (LP) on small families

The operator commands (``trace``, ``top``, ``explain``, ``evidence``,
``health``) only read the stats, span and result files that ``serve``
and ``batch`` write with ``--stats-every N --stats-file``,
``--trace-file`` and ``--output``; ``examples/probe.jsonl`` is a
four-request file that fills all three.

Graph specs (``--graph``) are parsed by :mod:`repro.graphs.spec` — see
its docstring for the full ``kind:arg`` grammar (``tree:N[:SEED]``,
``path:N``, ``grid:RxC``, ``city:N[:SEED]``, ...).

``--jobs`` follows the canonical semantics of
:func:`repro.analysis.montecarlo.normalize_jobs`: ``1`` inline, ``0`` or
negative = all cores, ``k > 1`` = that many worker processes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import IO, Iterable

import numpy as np

from .core.registry import available, make
from .graphs.graph import StaticGraph
from .graphs.spec import GraphSpecError, build_graph

__all__ = ["main"]


def _graph_from_spec(spec: str) -> StaticGraph:
    """Build a graph from a CLI spec string; exits with a message on error."""
    try:
        return build_graph(spec)
    except GraphSpecError as exc:
        raise SystemExit(f"{exc} (see --help)") from exc


def _cmd_list(_args: argparse.Namespace) -> None:
    for name in available():
        print(name)


def _cmd_run(args: argparse.Namespace) -> None:
    graph = _graph_from_spec(args.graph)
    alg = make(args.algorithm)
    result = alg.run(graph, np.random.default_rng(args.seed))
    result.validate(graph)
    print(f"graph     : {args.graph} (n={graph.n}, m={graph.m})")
    print(f"algorithm : {alg.name}")
    print(f"MIS size  : {result.size}")
    if result.rounds:
        print(f"rounds    : {result.rounds}")
    if result.info:
        print(f"info      : {dict(result.info)}")


def _cmd_estimate(args: argparse.Namespace) -> None:
    from .analysis.ascii import render_histogram

    graph = _graph_from_spec(args.graph)
    if args.ci is not None or args.ineq_ci is not None:
        # v2 precision mode: target a CI, let the scheduler stop early.
        from .service import Estimator, Precision

        spec: dict[str, object] = {
            "node_ci": args.ci,
            "inequality_ci": args.ineq_ci,
            "confidence": args.confidence,
        }
        if args.max_trials is not None:
            spec["max_trials"] = args.max_trials
        with Estimator(n_jobs=args.jobs) as service:
            result = service.estimate(
                graph=graph,
                algorithm=args.algorithm,
                precision=Precision(**spec),  # type: ignore[arg-type]
                seed=args.seed,
            )
        est = result.estimate
        stop = "stopped early" if result.stopped_early else "hit trial cap"
        budget = (
            f"trials: {est.trials} ({stop}; "
            f"{result.prior_trials} from cached evidence)"
        )
    else:
        from .analysis.montecarlo import run_trials

        alg = make(args.algorithm)
        est = run_trials(
            alg, graph, args.trials, seed=args.seed, n_jobs=args.jobs
        )
        budget = f"trials: {args.trials}"
    lower, upper = est.inequality_bounds()
    print(f"graph        : {args.graph} (n={graph.n})")
    print(f"algorithm    : {args.algorithm}   {budget}")
    print(f"inequality   : {est.inequality:.3f}   (95% CI [{lower:.2f}, {upper:.2f}])")
    print(f"min/max join : {est.min_probability:.3f} / {est.max_probability:.3f}")
    print("join-frequency histogram:")
    print("  " + render_histogram(est.probabilities))


def _cmd_table1(args: argparse.Namespace) -> None:
    from .experiments.table1 import format_table1, run_table1

    rows = run_table1(
        trials=args.trials, seed=args.seed, city_n=args.city_n, n_jobs=args.jobs
    )
    print(format_table1(rows))


def _cmd_figure4(args: argparse.Namespace) -> None:
    from .analysis.ascii import render_cdf
    from .experiments.figure4 import format_figure4, run_figure4

    series = run_figure4(
        trials=args.trials, seed=args.seed, city_n=args.city_n, n_jobs=args.jobs
    )
    print(format_figure4(series))
    panels: dict[str, dict[str, object]] = {}
    for s in series:
        panels.setdefault(s.panel, {})[f"{s.algorithm[:12]}:{s.tree[:18]}"] = s.cdf
    for panel, cdfs in panels.items():
        print(f"\nFigure 4 ({panel}):")
        print(render_cdf(cdfs))  # type: ignore[arg-type]


def _cmd_star(args: argparse.Namespace) -> None:
    from .experiments.star import format_star, run_star_experiment

    print(format_star(run_star_experiment(trials=args.trials, seed=args.seed)))


def _cmd_cone(args: argparse.Namespace) -> None:
    from .experiments.cone import format_cone, run_cone_experiment

    print(format_cone(run_cone_experiment(trials=args.trials, seed=args.seed)))


def _cmd_bounds(args: argparse.Namespace) -> None:
    from .experiments.bounds import format_bounds, run_all_bounds

    print(format_bounds(run_all_bounds(trials=args.trials, seed=args.seed)))


def _cmd_rounds(args: argparse.Namespace) -> None:
    from .experiments.rounds import format_rounds, run_rounds_experiment

    print(format_rounds(run_rounds_experiment(seed=args.seed)))


def _cmd_optimal(args: argparse.Namespace) -> None:
    from .experiments.optimal import format_optimal, run_optimal_experiment

    print(format_optimal(run_optimal_experiment(trials=args.trials, seed=args.seed)))


def _cmd_families(args: argparse.Namespace) -> None:
    from .experiments.families import format_family_sweep, run_family_sweep

    print(format_family_sweep(run_family_sweep(trials=args.trials, seed=args.seed)))


def _latency_summary(registry) -> dict[str, dict[str, float | None]]:
    """Per-algorithm request-latency percentiles (ms) from the registry.

    Empty histograms yield ``None`` entries, never a crash.
    """
    out: dict[str, dict[str, float | None]] = {}
    summaries = registry.quantiles("service_request_latency_seconds")
    for labels, summary in summaries.items():
        out[labels or "all"] = {
            "count": summary["count"],
            "mean_ms": _ms(summary["mean"]),
            "p50_ms": _ms(summary["p50"]),
            "p95_ms": _ms(summary["p95"]),
            "p99_ms": _ms(summary["p99"]),
        }
    return out


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def _service_loop(
    lines: Iterable[str],
    out: IO[str],
    *,
    jobs: int,
    cache_size: int,
    mode: str,
    include_counts: bool,
    stats_every: int = 0,
    stats_stream: IO[str] | None = None,
    max_line_bytes: int | None = None,
) -> int:
    """Run JSON-lines requests through one warm Estimator; returns #errors.

    Malformed JSON, unknown ``"v"`` envelopes, oversized lines, and
    schema violations never raise — each comes back as a structured
    per-line error object in the request's protocol shape
    (:mod:`repro.frontend.protocol`).  With ``stats_every=N`` a one-line
    JSON stats snapshot (the full metrics-registry snapshot, request-
    latency percentiles and the evidence plane's rows) is written after
    every N served requests — what ``repro top``, ``health`` and
    ``evidence`` read.
    Snapshots go to *stats_stream* when given (``--stats-file``,
    JSON-lines), otherwise to stderr.
    """
    from .frontend.protocol import (
        DEFAULT_MAX_LINE_BYTES,
        error_payload,
        parse_request_line,
    )
    from .obs.dashboard import snapshot_from_registry
    from .service import Estimator, InvalidRequest

    errors = 0
    served = 0
    limit = max_line_bytes if max_line_bytes is not None else DEFAULT_MAX_LINE_BYTES
    with Estimator(n_jobs=jobs, cache_size=cache_size) as service:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parsed = parse_request_line(
                line, lineno=lineno, max_bytes=limit, default_mode=mode
            )
            if not parsed.ok:
                errors += 1
                payload = parsed.error
            else:
                try:
                    result = service.estimate(parsed.request)
                    payload = result.to_json(include_counts=include_counts)
                except Exception as exc:  # noqa: BLE001 - reported per request
                    errors += 1
                    payload = error_payload(
                        "bad_request"
                        if isinstance(exc, InvalidRequest)
                        else "internal",
                        str(exc),
                        version=parsed.version,
                        line=lineno,
                        request_id=parsed.request.id,
                    )
            out.write(json.dumps(payload) + "\n")
            out.flush()
            served += 1
            if stats_every and served % stats_every == 0:
                snapshot = snapshot_from_registry(service.registry, served)
                snapshot["latency_ms"] = _latency_summary(service.registry)
                snapshot["evidence"] = service.cache.evidence_entries()
                target = stats_stream if stats_stream is not None else sys.stderr
                target.write(json.dumps(snapshot) + "\n")
                target.flush()
        requests, hits, trials = (
            int(service.registry.counter(f"service_{name}_total").value)
            for name in ("requests", "cache_hits", "trials_executed")
        )
    print(
        f"service: {requests} requests, {hits} cache hits, "
        f"{trials} trials executed",
        file=sys.stderr,
    )
    return errors


def _configure_service_logging(args: argparse.Namespace) -> None:
    """Enable structured JSON logging on stderr when ``--log-level`` set."""
    if getattr(args, "log_level", None):
        from .obs.logging import configure_logging

        configure_logging(stream=sys.stderr, level=args.log_level)


def _open_for_write(path: str, mode: str = "w") -> IO[str]:
    """Open an output file, or exit 1 with ``error: cannot open PATH``."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot open {path}: {exc.strerror}")


@contextmanager
def _stats_stream(args: argparse.Namespace):
    """Open ``--stats-file`` (append-mode JSON lines), or yield ``None``.

    Only the open is reported as ``cannot open``: an ``OSError`` the
    command raises while the file is open propagates unchanged.
    """
    path = getattr(args, "stats_file", None)
    if not path:
        yield None
        return
    with _open_for_write(path, "a") as fh:
        yield fh


@contextmanager
def _trace_sink(args: argparse.Namespace):
    """Register a ``--trace-file`` JSONL span sink for the duration."""
    path = getattr(args, "trace_file", None)
    if not path:
        yield None
        return
    from .obs.export import JsonlSpanSink
    from .obs.spans import register_span_sink, unregister_span_sink

    try:
        sink = JsonlSpanSink(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot open {path}: {exc.strerror}")
    register_span_sink(sink)
    try:
        yield sink
    finally:
        unregister_span_sink(sink)
        sink.close()


@contextmanager
def _flush_on_signals(*flushables):
    """Flush the given sinks on SIGTERM/SIGINT before exiting.

    Short ``serve`` runs are routinely stopped by a signal; without this
    their buffered ``--stats-file``/``--trace-file`` tails are lost.
    SIGTERM flushes and exits 143 (128+15); SIGINT flushes and re-raises
    as ``KeyboardInterrupt`` so the existing handling runs.  Handlers
    can only be installed on the main thread — elsewhere this is a
    no-op passthrough.
    """
    import signal

    def _flush_all() -> None:
        for sink in flushables:
            if sink is None:
                continue
            try:
                sink.flush()
            except Exception:  # noqa: BLE001 - flushing is best-effort
                pass

    def _on_term(_signum, _frame):
        _flush_all()
        raise SystemExit(143)

    def _on_int(_signum, _frame):
        _flush_all()
        raise KeyboardInterrupt

    try:
        prev_term = signal.signal(signal.SIGTERM, _on_term)
        prev_int = signal.signal(signal.SIGINT, _on_int)
    except ValueError:  # non-main thread: keep default delivery
        yield
        return
    try:
        yield
    finally:
        _flush_all()
        signal.signal(signal.SIGTERM, prev_term)
        signal.signal(signal.SIGINT, prev_int)


def _parse_hostport(text: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``:PORT``/``PORT``) → ``(host, port)``."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"error: expected HOST:PORT, got {text!r}")


def _cmd_serve_network(args: argparse.Namespace) -> None:
    """The ``serve --tcp/--http`` front end (docs/SERVICE.md)."""
    import asyncio

    from .frontend import (
        Frontend,
        FrontendConfig,
        ListenError,
        run_http_server,
        run_tcp_server,
    )
    from .frontend.protocol import DEFAULT_MAX_LINE_BYTES

    if args.tcp and args.http:
        raise SystemExit("error: choose one of --tcp / --http")
    host, port = _parse_hostport(args.tcp or args.http)
    config = FrontendConfig(
        shards=args.shards,
        shard_jobs=args.shard_jobs,
        cache_size=args.cache_size,
        mode=args.mode,
        include_counts=not args.no_counts,
        queue_limit=args.queue_limit,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        admission_half_life_s=args.admission_half_life,
        shed_threshold=args.shed_threshold,
        max_line_bytes=args.max_line_bytes or DEFAULT_MAX_LINE_BYTES,
        shard_log_level=args.log_level,
    )
    runner = run_tcp_server if args.tcp else run_http_server
    frontend = Frontend(config)

    async def serve(stats_stream) -> None:
        # announce the socket once it listens, not before it is bound
        ready = asyncio.Event()
        server = asyncio.create_task(
            runner(frontend, host, port, ready=ready, stats_stream=stats_stream)
        )
        listening = asyncio.create_task(ready.wait())
        await asyncio.wait(
            [server, listening], return_when=asyncio.FIRST_COMPLETED
        )
        if listening.done():
            print(
                f"repro front end listening on {host}:{frontend.bound_port} "
                f"({'tcp' if args.tcp else 'http'}, {config.shards} shard"
                f"{'s' if config.shards != 1 else ''}); Ctrl-C to stop",
                file=sys.stderr,
            )
        else:
            listening.cancel()
        await server

    try:
        with _stats_stream(args) as stats_stream, _flush_on_signals(
            stats_stream
        ):
            asyncio.run(serve(stats_stream))
    except ListenError as exc:
        raise SystemExit(f"error: {exc.strerror}")
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        raise SystemExit(130)


def _cmd_serve(args: argparse.Namespace) -> None:
    _configure_service_logging(args)
    if args.tcp or args.http:
        _cmd_serve_network(args)
        return
    print(
        "repro estimation service ready — one JSON request per line "
        "(see docs/SERVICE.md); EOF to stop",
        file=sys.stderr,
    )
    try:
        with _stats_stream(args) as stats_stream, _trace_sink(
            args
        ) as trace_sink, _flush_on_signals(stats_stream, trace_sink):
            errors = _service_loop(
                sys.stdin,
                sys.stdout,
                jobs=args.jobs,
                cache_size=args.cache_size,
                mode=args.mode,
                include_counts=not args.no_counts,
                stats_every=args.stats_every,
                stats_stream=stats_stream,
                max_line_bytes=args.max_line_bytes,
            )
    except KeyboardInterrupt:
        # The Estimator context has already torn its workers down.
        print("interrupted", file=sys.stderr)
        raise SystemExit(130)
    if errors:
        raise SystemExit(1)


def _cmd_loadgen(args: argparse.Namespace) -> None:
    import asyncio

    from .frontend import run_loadgen

    host, port = _parse_hostport(args.connect)
    specs = [s.strip() for s in args.graph.split(",") if s.strip()]
    if not specs:
        raise SystemExit("error: --graph must name at least one spec")
    requests: list[dict] = []
    for i in range(args.requests):
        spec = specs[i % len(specs)]
        if args.v2:
            requests.append(
                {"v": 2, "graph": spec, "algorithm": args.algorithm, "seed": 0}
            )
        else:
            requests.append(
                {
                    "graph": spec,
                    "algorithm": args.algorithm,
                    "trials": args.trials,
                    "seed": 0,
                }
            )
    try:
        report = asyncio.run(
            run_loadgen(
                host,
                port,
                requests,
                rate=args.rate,
                timeout_s=args.timeout,
            )
        )
    except ConnectionError as exc:
        raise SystemExit(f"error: cannot reach {host}:{port}: {exc}")
    except KeyboardInterrupt:
        raise SystemExit(130)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())


def _cmd_batch(args: argparse.Namespace) -> None:
    _configure_service_logging(args)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input}: {exc.strerror}")
    output = (
        nullcontext(sys.stdout)
        if args.output == "-"
        else _open_for_write(args.output)
    )
    with output as out, _stats_stream(args) as stats_stream, _trace_sink(
        args
    ) as trace_sink, _flush_on_signals(stats_stream, trace_sink):
        errors = _service_loop(
            lines,
            out,
            jobs=args.jobs,
            cache_size=args.cache_size,
            mode=args.mode,
            include_counts=not args.no_counts,
            stats_every=args.stats_every,
            stats_stream=stats_stream,
            max_line_bytes=args.max_line_bytes,
        )
    if errors:
        raise SystemExit(1)


def _render_trace(trace) -> str:
    """Render one convergence trace as the ``repro explain`` report."""
    from .analysis.ascii import sparkline

    reason = {
        "satisfied": "precision satisfied before the cap (stopped early)",
        "capped": "hard trial cap reached before the CI closed",
        "fixed-budget": "fixed trial budget (v1) — no stopping decision",
    }[trace.stop_reason]
    lines = [
        f"request    : {trace.request_id or '-'}   "
        f"algorithm {trace.algorithm}   mode {trace.mode}",
        f"graph hash : {trace.graph_hash}",
        f"stop reason: {trace.stop_reason} — {reason}",
        f"evidence   : {trace.prior_trials} prior (pooled) + "
        f"{trace.new_trials} fresh trials"
        + ("   [served from prior alone]" if trace.cached else ""),
    ]
    if trace.precision:
        target = ", ".join(
            f"{k}={v}" for k, v in trace.precision.items() if v is not None
        )
        lines.append(f"target     : {target}")
    lines.append("")
    lines.append(
        f"{'round':>5} {'chunks':>6} {'new':>7} {'total':>7} "
        f"{'node hw':>9} {'target':>8} {'ineq hw':>9} {'predict':>8} "
        f"{'wall ms':>9}  outcome"
    )
    for f in trace.frames:
        tgt = "-" if f.node_target is None else f"{f.node_target:.4g}"
        ineq = (
            "-"
            if f.inequality_halfwidth is None
            else f"{f.inequality_halfwidth:.4f}"
        )
        lines.append(
            f"{f.round:>5} {f.chunks:>6} {f.new_trials:>7} {f.trials:>7} "
            f"{f.node_halfwidth:>9.4f} {tgt:>8} {ineq:>9} "
            f"{f.predicted_remaining:>8} {f.wall_s * 1e3:>9.2f}  {f.outcome}"
        )
    widths = trace.node_halfwidths()
    if len(widths) > 1:
        lines.append("")
        lines.append(
            f"node half-width {widths[0]:.4f} "
            f"{sparkline(widths, lo=0.0)} {widths[-1]:.4f}"
        )
    return "\n".join(lines)


def _reader(command):
    """An operator command that prints what it reads and ends quietly,
    exit 1, when stdout's reader has gone (``repro health ... | head
    -1``): a closed pipe is no read error.  /dev/null then goes under
    stdout, so the interpreter's exit-time flush has nowhere to fail."""

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> None:
        try:
            try:
                command(args)
            finally:
                sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise SystemExit(1)

    return run


@_reader
def _cmd_explain(args: argparse.Namespace) -> None:
    """Render a request's convergence trace (why the estimator stopped).

    Reads the result lines of a ``serve``/``batch`` run (the request
    must have asked for ``"trace": true``) and explains one of them
    (``--id``, default the last trace-bearing line).
    """
    from .service.journal import ConvergenceTrace

    traces: list[ConvergenceTrace] = []
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict) and "convergence" in obj:
                    traces.append(ConvergenceTrace.from_json(obj["convergence"]))
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input}: {exc.strerror}")
    if args.id is not None:
        traces = [t for t in traces if t.request_id == args.id]
    if not traces:
        what = f"request id {args.id!r}" if args.id else "convergence traces"
        raise SystemExit(
            f"error: no {what} in {args.input} (did the requests set "
            '"trace": true?)'
        )
    trace = traces[-1]
    if args.json:
        print(json.dumps(trace.to_json(), indent=2))
    else:
        print(_render_trace(trace))


def _newest_snapshot(path: str) -> dict:
    """The newest stats snapshot in a ``--stats-file``; exits 1 if none."""
    from .obs.health import load_stats_snapshot

    try:
        snapshot = load_stats_snapshot(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    if snapshot is None:
        raise SystemExit(
            f"error: no stats snapshots in {path} (run "
            "serve/batch with --stats-every N --stats-file PATH)"
        )
    return snapshot


@_reader
def _cmd_evidence(args: argparse.Namespace) -> None:
    """Tabulate (``ls``) or dump (``show``) the pooled evidence plane.

    The rows are the ``evidence`` entries of the newest snapshot in a
    ``serve``/``batch`` ``--stats-file`` (one per ``(graph,
    algorithm)`` pool, as :meth:`ResultCache.evidence_entries` reports
    them).
    """
    snapshot = _newest_snapshot(args.stats_file)
    rows = snapshot.get("evidence")
    if rows is None:
        raise SystemExit(
            f"error: the newest snapshot in {args.stats_file} has no "
            "evidence rows (only serve/batch --stats-file snapshots carry "
            "them; a front end's do not)"
        )
    if args.graph_hash:
        rows = [r for r in rows if r["graph_hash"].startswith(args.graph_hash)]
    if args.match_algorithm:
        rows = [r for r in rows if r["algorithm"] == args.match_algorithm]
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    if not rows:
        print("evidence plane is empty (no matching pools)")
        return
    if args.evidence_command == "show":
        for r in rows:
            print(f"graph hash : {r['graph_hash']}")
            print(f"algorithm  : {r['algorithm']}")
            print(f"trials     : {r['trials']} pooled over {r['nodes']} nodes")
            print(f"resident   : {r['bytes']} bytes   dedup tags {r['tags']}")
            print(f"age        : {r['age_s']:.1f}s since first deposit")
            print(
                f"achievable : ±{r['achievable_halfwidth']:.4f} node CI "
                "half-width at 95% from the pool alone"
            )
            print()
        return
    print(
        f"{'graph hash':<16} {'algorithm':<22} {'trials':>8} {'nodes':>7} "
        f"{'bytes':>10} {'age s':>7} {'tags':>5} {'±hw@95%':>9}"
    )
    for r in rows:
        print(
            f"{r['graph_hash'][:14] + '…':<16} {r['algorithm']:<22} "
            f"{r['trials']:>8} {r['nodes']:>7} {r['bytes']:>10} "
            f"{r['age_s']:>7.1f} {r['tags']:>5} "
            f"{r['achievable_halfwidth']:>9.4f}"
        )


@_reader
def _cmd_health(args: argparse.Namespace) -> None:
    """Evaluate the SLO health rules; exit 0 ok / 1 warn / 2 crit.

    Judges the newest snapshot in a ``serve``/``batch`` stats JSONL.
    """
    from .obs.health import evaluate_health

    snapshot = _newest_snapshot(args.stats_file)
    report = evaluate_health(snapshot, slo_ms=args.slo_ms)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    if report.exit_code:
        raise SystemExit(report.exit_code)


@_reader
def _cmd_trace(args: argparse.Namespace) -> None:
    """Export a span tree as Chrome trace-event / Perfetto JSON.

    Reads the span records a ``serve``/``batch`` run captured with
    ``--trace-file`` and exports one trace (``--trace-id``, default:
    the last one seen); ``--list`` prints the available trace IDs
    instead.
    """
    from .obs.export import read_spans_jsonl, to_chrome_trace

    try:
        records = read_spans_jsonl(args.input)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input}: {exc.strerror}")
    trace_ids: list[str] = []
    for r in records:
        tid = r.get("trace_id")
        if tid and tid not in trace_ids:
            trace_ids.append(tid)
    if args.list:
        for tid in trace_ids:
            n = sum(1 for r in records if r.get("trace_id") == tid)
            print(f"{tid}  ({n} spans)")
        return
    trace_id = args.trace_id or (trace_ids[-1] if trace_ids else None)
    if trace_id is None:
        raise SystemExit(f"error: no span records in {args.input}")
    doc = to_chrome_trace(records, trace_id)
    if not doc["traceEvents"]:
        raise SystemExit(f"error: no spans recorded for trace {trace_id}")
    payload = json.dumps(doc, indent=None if args.out != "-" else 2)
    if args.out == "-":
        print(payload)
    else:
        with _open_for_write(args.out) as fh:
            fh.write(payload + "\n")
        print(
            f"wrote {args.out} ({len(doc['traceEvents'])} spans, "
            f"trace {trace_id}) — open in chrome://tracing or "
            "https://ui.perfetto.dev",
            file=sys.stderr,
        )


@_reader
def _cmd_top(args: argparse.Namespace) -> None:
    """Live terminal dashboard over service stats snapshots.

    Tails the ``--stats-file`` a running ``serve``/``batch`` writes
    (start that side with ``--stats-every N --stats-file PATH``).
    ``--once`` renders the frame of what the file already holds, and
    exits 1 when it holds no snapshot; live tailing waits for one.
    """
    from .obs.dashboard import run_top

    if args.once:
        _newest_snapshot(args.stats_file)
    try:
        run_top(
            args.stats_file,
            interval=args.interval,
            slo_ms=args.slo_ms,
            slo_target=args.slo_target,
            window_s=args.window,
            once=args.once,
        )
    except BrokenPipeError:
        raise  # stdout's reader has gone: no read error (see _reader)
    except OSError as exc:
        raise SystemExit(
            f"error: cannot read {args.stats_file}: {exc.strerror}"
        )
    except KeyboardInterrupt:
        pass


def _cmd_bench(args: argparse.Namespace) -> None:
    """Run the count suite, write the artifact, optionally gate."""
    from .bench import (
        compare_artifacts,
        default_artifact_path,
        load_artifact,
        make_artifact,
        run_suite,
        write_artifact,
    )
    from .bench.suite import build_cases

    cases = build_cases(args.only)
    if args.list:
        for case in cases:
            print(f"{case.name:<22} {case.description}")
        return
    if not cases:
        raise SystemExit(f"error: no bench cases match --only {args.only!r}")

    def progress(message: str) -> None:
        print(message, file=sys.stderr)
        sys.stderr.flush()

    metrics = run_suite(cases, progress=progress)
    doc = make_artifact(metrics)
    out_path = args.out if args.out else default_artifact_path(sha=doc["git_sha"])
    write_artifact(doc, out_path)
    print(f"wrote {out_path} ({len(metrics)} metrics)", file=sys.stderr)
    for name in sorted(metrics):
        entry = metrics[name]
        print(f"{name:<38} {entry['value']:>12.4g} {entry['unit']}")
    if args.compare:
        try:
            baseline = load_artifact(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot load baseline {args.compare}: {exc}")
        report = compare_artifacts(doc, baseline)
        print(report.format())
        if not report.ok:
            raise SystemExit(1)


def _load_graph_input(args: argparse.Namespace) -> StaticGraph:
    """Resolve the ``graph convert`` INPUT argument to a graph.

    Existing files are dispatched by suffix (``.reprograph`` memmap,
    ``.npz`` archive, anything else parsed as a SNAP-style edge list);
    non-files are treated as generator specs (``grid:1000x1000``, ...).
    """
    from pathlib import Path

    source = Path(args.input)
    if not source.exists():
        if ":" in args.input or args.input.isalpha():
            return _graph_from_spec(args.input)
        raise SystemExit(f"error: no such file: {args.input}")
    if source.suffix == ".reprograph":
        from .graphs.diskgraph import load_reprograph

        return load_reprograph(source, verify=args.verify)
    if source.suffix == ".npz":
        from .graphs.io import load_graph

        return load_graph(source)
    from .graphs.snap import load_snap_edgelist

    result = load_snap_edgelist(source, compact_ids=not args.no_compact_ids)
    if result.self_loops_dropped:
        print(
            f"note: dropped {result.self_loops_dropped} self-loop(s)",
            file=sys.stderr,
        )
    return result.graph


def _cmd_graph_convert(args: argparse.Namespace) -> None:
    from pathlib import Path

    graph = _load_graph_input(args)
    out = Path(args.output)
    if out.suffix == ".reprograph":
        from .graphs.diskgraph import save_reprograph

        nbytes = save_reprograph(out, graph, compact=args.compact)
    elif out.suffix == ".npz":
        if args.compact:
            raise SystemExit("error: --compact only applies to .reprograph output")
        from .graphs.io import save_graph

        save_graph(out, graph)
        nbytes = out.stat().st_size
    else:
        raise SystemExit(
            f"error: unsupported output suffix {out.suffix!r} "
            "(use .reprograph or .npz)"
        )
    print(
        f"wrote {out} (n={graph.n}, m={graph.m}, "
        f"{nbytes / 1e6:.1f} MB, hash {graph.content_hash()[:12]}…)"
    )


def _cmd_graph_inspect(args: argparse.Namespace) -> None:
    from .graphs.diskgraph import inspect_reprograph
    from .graphs.graph import GraphValidationError

    try:
        head = inspect_reprograph(args.path)
    except (OSError, GraphValidationError) as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(head, indent=2))
        return
    layout = "int32 (compact)" if head["compact"] else "int64 (zero-copy)"
    print(f"path        : {args.path}")
    print(f"version     : {head['version']}")
    print(f"n, m        : {head['n']}, {head['m']}")
    print(f"layout      : {layout}")
    print(f"content hash: {head['content_hash']}")
    print(f"file bytes  : {head['file_bytes']}")
    print(
        "offsets     : edges={edges_offset} indptr={indptr_offset} "
        "indices={indices_offset}".format(**head)
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fair Maximal Independent Sets (IPDPS 2014) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered algorithms").set_defaults(
        fn=_cmd_list
    )

    jobs_help = (
        "worker processes: 1 = inline, 0 or negative = all cores, "
        "k > 1 = that many (repro.analysis.montecarlo.normalize_jobs)"
    )

    def common(p: argparse.ArgumentParser, trials_default: int = 2000) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--jobs", type=int, default=1, help=jobs_help)

    p = sub.add_parser("run", help="one execution, validated")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", default="fair_tree_fast")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("estimate", help="Monte-Carlo fairness estimate")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", default="fair_tree_fast")
    common(p)
    p.add_argument(
        "--ci",
        type=float,
        default=None,
        metavar="HW",
        help="v2 precision mode: target per-node join-frequency CI "
        "half-width (runs trial rounds until it closes; --trials ignored)",
    )
    p.add_argument(
        "--ineq-ci",
        type=float,
        default=None,
        metavar="HW",
        help="v2 precision mode: target inequality-factor CI half-width",
    )
    p.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for --ci/--ineq-ci targets (default 0.95)",
    )
    p.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="N",
        help="hard trial cap for precision mode (default 20000)",
    )
    p.set_defaults(fn=_cmd_estimate)

    for name, fn, help_text in (
        ("table1", _cmd_table1, "regenerate Table I"),
        ("figure4", _cmd_figure4, "regenerate Figure 4 (ASCII)"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--city-n", type=int, default=2500)
        p.set_defaults(fn=fn)

    for name, fn, help_text, default_trials in (
        ("star", _cmd_star, "§I star demonstration", 4000),
        ("cone", _cmd_cone, "§VIII lower-bound sweep", 6000),
        ("bounds", _cmd_bounds, "theorem bound checks", 3000),
        ("optimal", _cmd_optimal, "exact optimal fairness (LP)", 3000),
        ("families", _cmd_families, "fairness landscape matrix", 1500),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, default_trials)
        p.set_defaults(fn=fn)

    p = sub.add_parser("rounds", help="round complexity (faithful layer)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_rounds)

    def service_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=0, help=jobs_help)
        p.add_argument("--cache-size", type=int, default=128)
        p.add_argument(
            "--mode",
            choices=("auto", "exact", "vectorized"),
            default="auto",
            help="default executor for requests that do not specify one",
        )
        p.add_argument(
            "--no-counts",
            action="store_true",
            help="omit per-node count vectors from result JSON",
        )
        p.add_argument(
            "--stats-every",
            type=int,
            default=0,
            metavar="N",
            help="emit a JSON stats snapshot to stderr every N requests "
            "(0 = off)",
        )
        p.add_argument(
            "--stats-file",
            default=None,
            metavar="PATH",
            help="append stats snapshots to PATH (JSON lines) instead of "
            "interleaving them on stderr",
        )
        p.add_argument(
            "--trace-file",
            default=None,
            metavar="PATH",
            help="append completed span records to PATH (JSON lines; "
            "includes worker-process spans merged by the telemetry "
            "plane) — export later with 'repro trace --input PATH'",
        )
        p.add_argument(
            "--log-level",
            choices=("debug", "info", "warning", "error"),
            default=None,
            help="enable structured JSON-lines logging on stderr",
        )
        p.add_argument(
            "--max-line-bytes",
            type=int,
            default=None,
            metavar="N",
            help="reject request lines larger than N bytes with a "
            "structured line_too_large error (default 1 MiB)",
        )

    p = sub.add_parser(
        "serve",
        help="estimation service: JSON lines stdin -> stdout, or a "
        "sharded network front end with --tcp/--http",
    )
    service_opts(p)
    net = p.add_argument_group(
        "network front end (docs/SERVICE.md, 'Network deployment')"
    )
    net.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="serve the JSON line protocol over TCP, fanned across "
        "--shards serve subprocesses",
    )
    net.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="serve single requests over HTTP (POST /estimate, "
        "GET /metrics, GET /healthz)",
    )
    net.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard subprocesses behind the front end (each owns its "
        "own pools, cache, and evidence)",
    )
    net.add_argument(
        "--shard-jobs",
        type=int,
        default=1,
        help="worker processes per shard (the shard's serve --jobs)",
    )
    net.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max in-flight requests per shard; a full queue sheds "
        "with a structured overloaded error",
    )
    net.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="RPS",
        help="per-client sustained requests/s (token bucket; 0 = off)",
    )
    net.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        metavar="N",
        help="per-client burst allowance (default 2x --rate-limit)",
    )
    net.add_argument(
        "--admission-half-life",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="decay half-life of the peak-hold load estimate",
    )
    net.add_argument(
        "--shed-threshold",
        type=float,
        default=0.85,
        metavar="LOAD",
        help="normalized queue pressure above which admission "
        "control starts shedding",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a 'serve --tcp' front end",
    )
    p.add_argument(
        "--connect",
        default="127.0.0.1:7070",
        metavar="HOST:PORT",
        help="front end to drive",
    )
    p.add_argument(
        "--graph",
        default="tree:200:1",
        help="graph spec(s) to request, comma-separated; requests "
        "rotate through them",
    )
    p.add_argument("--algorithm", default="luby_fast")
    p.add_argument(
        "--trials", type=int, default=200, help="fixed trial budget per request"
    )
    p.add_argument(
        "--requests", "-n", type=int, default=100, help="total requests to offer"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="RPS",
        help="open-loop offered rate (departures never wait for responses)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="give up waiting for stragglers after this long",
    )
    p.add_argument(
        "--v2",
        action="store_true",
        help="send v2 precision requests instead of fixed-trial v1",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report instead of the summary",
    )
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser(
        "batch", help="estimation service over a JSON-lines request file"
    )
    p.add_argument("--input", required=True, help="request file (JSON lines)")
    p.add_argument("--output", default="-", help="result file, or - for stdout")
    service_opts(p)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser(
        "trace",
        help="export a span tree as Chrome trace-event / Perfetto JSON",
    )
    p.add_argument(
        "--input",
        required=True,
        metavar="PATH",
        help="span records from a serve/batch --trace-file (JSON lines)",
    )
    p.add_argument(
        "--trace-id",
        default=None,
        help="which trace to export from --input (default: the last one)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list trace IDs found in --input and exit",
    )
    p.add_argument(
        "--out",
        default="-",
        metavar="PATH",
        help="output path for the trace JSON (- for stdout)",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "top", help="live terminal dashboard over service stats snapshots"
    )
    p.add_argument(
        "--stats-file",
        required=True,
        metavar="PATH",
        help="tail this JSONL stats file (from serve/batch "
        "--stats-every N --stats-file PATH)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh poll interval in seconds (default 2)",
    )
    p.add_argument(
        "--slo-ms",
        type=float,
        default=250.0,
        help="latency SLO target in milliseconds (default 250)",
    )
    p.add_argument(
        "--slo-target",
        type=float,
        default=0.95,
        help="fraction of requests that must meet --slo-ms (default 0.95)",
    )
    p.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="sliding window for rates/percentiles in seconds (default 60)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single plain frame and exit (scripting/CI mode)",
    )
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser(
        "explain",
        help="render a request's convergence trace (why the estimator "
        "stopped)",
    )
    p.add_argument(
        "--input",
        required=True,
        metavar="PATH",
        help="result lines from a serve/batch run (the requests must "
        'have set "trace": true)',
    )
    p.add_argument(
        "--id",
        default=None,
        help="explain the trace with this request id (default: the last "
        "trace in --input)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable trace JSON"
    )
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "evidence", help="list the pooled evidence plane in a stats file"
    )
    esub = p.add_subparsers(dest="evidence_command", required=True)
    for ename, ehelp in (
        ("ls", "tabulate every (graph, algorithm) evidence pool"),
        ("show", "dump matching pools in detail"),
    ):
        e = esub.add_parser(ename, help=ehelp)
        e.add_argument(
            "--stats-file",
            required=True,
            metavar="PATH",
            help="read the newest snapshot in this stats JSONL (from "
            "serve/batch --stats-every N --stats-file PATH)",
        )
        e.add_argument(
            "--graph-hash",
            default=None,
            help="only pools whose graph hash starts with this prefix",
        )
        e.add_argument(
            "--match-algorithm",
            default=None,
            metavar="KEY",
            help="only pools with this exact algorithm key",
        )
        e.add_argument(
            "--json", action="store_true", help="machine-readable rows"
        )
        e.set_defaults(fn=_cmd_evidence)

    p = sub.add_parser(
        "health",
        help="evaluate SLO health rules; exit 0 ok / 1 warn / 2 crit",
    )
    p.add_argument(
        "--stats-file",
        required=True,
        metavar="PATH",
        help="judge the newest snapshot in this stats JSONL (from "
        "serve/batch --stats-every N --stats-file PATH)",
    )
    p.add_argument(
        "--slo-ms",
        type=float,
        default=250.0,
        help="latency SLO driving the p99 thresholds (default 250)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p.set_defaults(fn=_cmd_health)

    p = sub.add_parser(
        "bench", help="deterministic count suite -> BENCH_<sha>.json"
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="artifact path (default: BENCH_<git-sha>.json in the cwd)",
    )
    p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline artifact made with the same "
        "--only; exit 1 on any regression",
    )
    p.add_argument(
        "--only",
        default=None,
        metavar="SUBSTR",
        help="run only bench cases whose name contains SUBSTR",
    )
    p.add_argument(
        "--list", action="store_true", help="list bench cases and exit"
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "graph", help="convert/inspect on-disk graphs (.npz/.reprograph/SNAP)"
    )
    gsub = p.add_subparsers(dest="graph_command", required=True)

    g = gsub.add_parser(
        "convert",
        help="build or load a graph and write it as .reprograph or .npz",
    )
    g.add_argument(
        "input",
        help="source: a .reprograph/.npz file, a SNAP-style edge list "
        "(.txt/.gz/...), or a generator spec like grid:1000x1000",
    )
    g.add_argument("output", help="destination (.reprograph or .npz)")
    g.add_argument(
        "--compact",
        action="store_true",
        help="store .reprograph buffers as int32 (halves the file; "
        "loads widen with one copy instead of mapping zero-copy)",
    )
    g.add_argument(
        "--no-compact-ids",
        action="store_true",
        help="SNAP input: use node ids as-is instead of remapping to 0..n-1",
    )
    g.add_argument(
        "--verify",
        action="store_true",
        help=".reprograph input: re-hash the edge buffer against the header",
    )
    g.set_defaults(fn=_cmd_graph_convert)

    g = gsub.add_parser(
        "inspect", help="print .reprograph header metadata (no data mapped)"
    )
    g.add_argument("path")
    g.add_argument("--json", action="store_true", help="machine-readable output")
    g.set_defaults(fn=_cmd_graph_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
