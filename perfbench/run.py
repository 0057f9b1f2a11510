"""The repository's benchmark: one workload, checked, measured end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1|serve-cold|serve-warm \\
        --seed N --seconds S --trace 0|1

Every input is generated from ``--seed``; the program only ever sees the
generated graphs and request lines.  ``--trace 0`` runs the workload once
with the program untouched and prints the end-to-end metrics;
``--trace 1`` runs it untraced and then traced (the difference is the
tracing overhead) and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a fuller report (host,
load, leaks, sample counts, the per-workload metrics of README.md).

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procfs  # noqa: E402
import stats  # noqa: E402
import table1_job  # noqa: E402

WORKLOADS = ("table1", "serve-cold", "serve-warm")
#: Set-ups per untraced run; set-up time is their median.
SETUPS = 5
#: The end-to-end metrics every workload reports: (name, unit).
E2E = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_memory_mb", "MB"),
)
#: Tail percentiles in the report: p90 everywhere (a 20 s run holds at
#: least 100 requests: table1 ~130-320 cells, serve-cold 120, serve-warm
#: 4000, so at least 10 lie beyond it) and, where the designed sample count
#: keeps 10 beyond a higher one, that one too (serve-warm's p99).  Tails
#: are reported, not gated: serve-warm's p90 and p99 follow the host's
#: CPU steal (p90 3.2-9.1 ms, p99 6-24 ms over ten runs on a loaded host
#: whose p50 stayed within 2.4-3.4 ms).
REPORTED_Q = {"table1": (90.0,), "serve-cold": (90.0,), "serve-warm": (90.0, 99.0)}
#: Error codes that mean "refused or lost", not "answered wrongly".
_REFUSALS = ("no reply", "error overloaded", "error rate_limited", "error shard_unavailable")
#: How long the table1 job may run beyond ``--seconds``: its last batch
#: (each result waits at most ``RESULT_TIMEOUT_S``) plus the exactness check.
JOB_MARGIN_S = table1_job.RESULT_TIMEOUT_S + 30.0
#: Pool workers live a fraction of a second each; sample their memory often.
MEMORY_INTERVAL_S = 0.1


def _run_job(
    args: argparse.Namespace, trace_dir: Path | None, setup_only: bool
) -> tuple[dict, procfs.MemoryMonitor, int, int]:
    """Run the table1 job once; ``(output, memory, leaked, shm_left)``."""
    argv = [sys.executable, str(HERE / "table1_job.py"), "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    if setup_only:
        argv.append("--setup-only")
    shm_before = procfs.shm_segments()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        with procfs.MemoryMonitor(proc.pid, MEMORY_INTERVAL_S) as memory:
            out, _ = proc.communicate(timeout=args.seconds + JOB_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    leaked = len(procfs.wait_session_gone(proc.pid))
    if proc.returncode != 0:
        raise RuntimeError(f"table1 job failed with exit code {proc.returncode}")
    return (
        json.loads(out.decode().strip().splitlines()[-1]),
        memory,
        leaked,
        len(procfs.shm_segments() - shm_before),
    )


def run_table1(args: argparse.Namespace, trace_dir: Path | None, setups: int) -> dict:
    """The batch workload as a normalised run record."""
    setup_samples, leaked, shm_left = [], 0, 0
    for _ in range(setups - 1):
        out, _, out_leaked, out_shm = _run_job(args, None, True)
        setup_samples.append(out["setup_s"])
        leaked, shm_left = leaked + out_leaked, shm_left + out_shm
    job, memory, job_leaked, job_shm = _run_job(args, trace_dir, False)
    setup_samples.append(job["setup_s"])
    requests = [
        {
            "rid": c["rid"],
            "due": c["submit_ns"] / 1e9,
            "sent": c["submit_ns"] / 1e9,
            "replied": c["done_ns"] / 1e9,
            "problem": c["problem"],
            "reply": {"cached": False, "trials_run": c["trials_run"]},
        }
        for c in job["cells"]
    ]
    start, end = job["batches"][0][0] / 1e9, job["batches"][-1][1] / 1e9
    return {
        "setup_samples": setup_samples,
        "requests": requests,
        "window": (start, end),
        "cpu_s": job["cpu_s"],
        "peak_rss": memory.peak_rss,
        # Pool workers are forked: summed PSS, not summed RSS or VmHWM,
        # splits the pages they share with the job among the sharers.
        "peak_memory": memory.peak_pss,
        "lateness_s": [ns / 1e9 for ns in job["late_ns"]],
        "leak_processes": leaked + job_leaked,
        "leak_shm": shm_left + job_shm,
        "prime_s": 0.0,
        "limit_s": None,
        "trials": job["trials"],
        "workers": job["workers"],
        "shards": 0,
    }


def run_served(args: argparse.Namespace, work: Path, trace_dir: Path | None, setups: int) -> dict:
    """A served workload as a normalised run record."""
    import served

    raw = served.run(args.workload, args.seed, args.seconds, work, trace_dir, setups)
    requests = []
    for outcome, problem in zip(raw["outcomes"], raw["problems"]):
        reply = outcome.reply()
        if reply is not None:
            reply.pop("counts", None)
        requests.append({
            "rid": outcome.rid,
            "due": outcome.due,
            "sent": outcome.sent if outcome.sent is not None else outcome.due,
            "replied": outcome.replied,
            "problem": problem,
            "reply": reply,
        })
    return {
        "setup_samples": raw["setup_samples"],
        "requests": requests,
        "window": raw["window"],
        "cpu_s": raw["cpu_s"],
        "peak_rss": raw["peak_rss"],
        "peak_memory": raw["peak_memory"],
        "lateness_s": [max(0.0, r["sent"] - r["due"]) for r in requests],
        "leak_processes": raw["leak_processes"],
        "leak_shm": raw["leak_shm"],
        "prime_s": raw["prime_s"],
        "limit_s": raw["limit_s"],
        "trials": None,
        "workers": served.SHARDS,  # one inline worker per shard
        "shards": served.SHARDS,
    }


def end_to_end(run: dict, report_q: tuple[float, ...]) -> tuple[dict, dict]:
    """``(metrics, report)``: the gated metrics and the fuller view."""
    requests = run["requests"]
    good = [r for r in requests if r["problem"] is None]
    latencies, _ = stats.due_latencies(
        (r["due"], r["sent"], r["replied"]) for r in good
    )
    ms = [x * 1e3 for x in latencies]
    n = len(ms)
    p50 = statistics.median(ms) if ms else 0.0
    completed = sum(1 for r in requests if r["replied"] is not None)
    start, end = run["window"]
    metrics = {
        "setup_s": statistics.median(run["setup_samples"]),
        "latency_p50_ms": p50,
        "cpu_ms_per_req": run["cpu_s"] * 1e3 / completed if completed else 0.0,
        "peak_memory_mb": run["peak_memory"] / 1e6,
    }
    failed = len(requests) - len(good)
    report = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "samples": run["setup_samples"]},
        "latency_p50_ms": {"value": p50, "unit": "ms", "n": n},
    }
    for q in report_q:
        report[f"latency_p{q:g}_ms"] = {
            "value": stats.percentile(ms, q) if ms else 0.0,
            "unit": "ms", "n": n, "beyond": stats.beyond(n, q),
        }
    report.update({
        "cpu_ms_per_req": {"value": metrics["cpu_ms_per_req"], "unit": "ms", "n": completed},
        "peak_memory_mb": {"value": metrics["peak_memory_mb"], "unit": "MB"},
        "peak_rss_mb": {"value": run["peak_rss"] / 1e6, "unit": "MB"},
        "failed_share": {"value": failed / len(requests) if requests else 0.0,
                         "unit": "fraction", "n": len(requests)},
    })
    if run["trials"] is not None:
        report["trials_per_s"] = {"value": run["trials"] / (end - start), "unit": "trials/s",
                                  "makespan_s": end - start}
    if run["limit_s"] is not None:
        within = sum(1 for x in latencies if x <= run["limit_s"])
        report["slo_share"] = {"value": within / len(requests) if requests else 0.0,
                               "unit": "fraction", "limit_ms": run["limit_s"] * 1e3}
    return metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout that holds src/repro", file=sys.stderr)
        return 2
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        host = procfs.host_info(root)
        load_before = procfs.load1()
        ticks_before = procfs.cpu_ticks()
        reference_before = procfs.reference_ms()
        report_q = REPORTED_Q[args.workload]
        runner = run_table1 if args.workload == "table1" else (
            lambda a, t, n: run_served(a, work, t, n)
        )
        if args.trace:
            import layers
            import tracer

            baseline = runner(args, None, 1)
            trace_dir = work / "trace"
            traced = runner(args, trace_dir, 1)
            cpu = {
                "untraced": end_to_end(baseline, report_q)[0]["cpu_ms_per_req"],
                "traced": end_to_end(traced, report_q)[0]["cpu_ms_per_req"],
            }
            overhead = cpu["traced"] / cpu["untraced"] - 1.0 if cpu["untraced"] else 0.0
            values, samples = layers.per_layer(tracer.load(trace_dir), traced, overhead)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            runs = (baseline, traced)
            report = {"samples": samples, "cpu_ms_per_req": cpu}
        else:
            run = runner(args, None, SETUPS)
            values, report = end_to_end(run, report_q)
            units = dict(E2E)
            runs = (run,)
        load_after = procfs.load1()
        ticks_after = procfs.cpu_ticks()
        reference_after = procfs.reference_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    problems = [r["problem"] for run in runs for r in run["requests"] if r["problem"]]
    wrong = [p for p in problems if not p.startswith(_REFUSALS)]
    attempted = sum(len(run["requests"]) for run in runs)
    print(json.dumps({
        "report": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "load1": {"before": load_before, "after": load_after},
            "cpu_steal_share": (ticks_after[0] - ticks_before[0])
            / max(1, ticks_after[1] - ticks_before[1]),
            "reference_loop_ms": {"before": reference_before, "after": reference_after},
            "leak": {
                "processes": sum(run["leak_processes"] for run in runs),
                "shm_segments": sum(run["leak_shm"] for run in runs),
            },
            "attempted": attempted,
            "failed": len(problems),
            "problems": sorted(set(problems))[:10],
            **report,
        }
    }))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
