"""The served workloads: a stock ``repro serve --tcp`` hit cold and warm.

Every run starts exactly ``python -m repro serve --tcp 127.0.0.1:<port>
--shards 2 --shard-jobs 1``; a traced run only adds ``hook/`` to
``PYTHONPATH``, whose ``sitecustomize`` installs the benchmark's wrappers
in the front end and, through the inherited environment, in its shards.
The program runs in a session of its own and receives only request
lines.

Rates, sizes and limits are constants, never derived from a measurement
of the program (see README.md for why each value is what it is).
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import procfs
import loadgen
from loadgen import open_loop
from tracer import TRACE_DIR_ENV

HOOK_DIR = Path(__file__).resolve().parent / "hook"
HOST = "127.0.0.1"
SHARDS = 2

FAST_ALGORITHMS = (
    "luby_fast",
    "fair_tree_fast",
    "fair_rooted_fast",
    "fair_bipart_fast",
    "color_mis_fast",
)

# serve-cold: fresh trees, five algorithms in turn.
COLD_RATE = 6.0  # requests/s
#: Tree size per algorithm (drawn within +-15%), chosen so a request costs
#: about the same whichever algorithm serves it: ~70 ms of CPU in the 2-core
#: host's quiet state (6 req/s is then ~22% of the cores) and 120-180 ms in
#: its loaded state (~43%); README.md has the per-algorithm figures.
COLD_SIZES = {
    "luby_fast": 450,
    "fair_tree_fast": 95,
    "fair_rooted_fast": 280,
    "fair_bipart_fast": 16,
    "color_mis_fast": 22,
}
COLD_V1_TRIALS = 1600  # about what the default v2 target needs
COLD_SHAPES = (("v2", 0.6), ("v1_seeded", 0.2), ("v1_seedless", 0.2))
COLD_LIMIT_S = 1.5
COLD_DRAIN_S = 30.0
NODE_CI = 0.025  # the service's default v2 target (Precision.default)
MAX_TRIALS = 20_000  # ... and its hard cap

# serve-warm: a primed hot set, every request answered from a cache plane.
WARM_RATE = 200.0
WARM_GRAPHS = 32
WARM_SIZE = (450, 550)
WARM_ALGORITHMS = ("luby_fast", "fair_tree_fast")
PRIME_TRIALS = 2000
WARM_LIMIT_S = 0.050
WARM_DRAIN_S = 5.0
PRIME_TIMEOUT_S = 120.0

SETUP_TRIALS = 64
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


async def request_all(port: int, lines: dict[str, str], timeout: float) -> dict[str, dict]:
    """Send every line on one connection; replies by id (closed loop)."""
    schedule = [(0.0, rid, line) for rid, line in lines.items()]
    outcomes, _, _ = await open_loop(
        HOST, port, schedule, drain_s=timeout, connections=1, lead_s=0.0
    )
    return {o.rid: o.reply() for o in outcomes if o.raw is not None}


@dataclass
class Server:
    """One running front end (and its shards) in a session of its own."""

    proc: subprocess.Popen
    port: int
    setup_s: float
    log: Path

    @classmethod
    def launch(cls, work: Path, algorithms, trace_dir: Path | None) -> "Server":
        """Start the front end; ready once each shard answered each algorithm.

        With *trace_dir* the same command runs with the benchmark's
        wrappers installed, writing its spans there.
        """
        port = free_port()
        src = str(Path.cwd() / "src")
        env = dict(os.environ, PYTHONPATH=src)
        if trace_dir is not None:
            env["PYTHONPATH"] = os.pathsep.join((str(HOOK_DIR), src))
            env[TRACE_DIR_ENV] = str(trace_dir)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--tcp", f"{HOST}:{port}",
            "--shards", str(SHARDS), "--shard-jobs", "1",
        ]
        log = work / f"server-{port}.log"
        t0 = time.monotonic()
        with open(log, "ab") as err:
            proc = subprocess.Popen(
                argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
        server = cls(proc, port, 0.0, log)
        try:
            server._wait_ready(algorithms, t0)
        except BaseException:
            server.stop()
            raise
        server.setup_s = time.monotonic() - t0
        return server

    def _wait_ready(self, algorithms, t0: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"front end exited early; see {self.log}")
            if time.monotonic() - t0 > READY_TIMEOUT_S:
                raise RuntimeError("front end did not start listening")
            try:
                socket.create_connection((HOST, self.port), timeout=1.0).close()
                break
            except OSError:
                time.sleep(0.02)
        # Routing ignores the algorithm, so one spec reaches one shard for
        # every algorithm; widen the set of specs until both shards answered.
        covered: set[int] = set()
        k = 0
        while len(covered) < SHARDS:
            if time.monotonic() - t0 > READY_TIMEOUT_S or k > 64:
                raise RuntimeError("shards did not answer the set-up requests")
            lines = {
                f"setup-{k + j}-{alg}": json.dumps({
                    "id": f"setup-{k + j}-{alg}", "graph": f"tree:8:{k + j}",
                    "algorithm": alg, "trials": SETUP_TRIALS, "seed": k + j,
                })
                for j in range(4)
                for alg in algorithms
            }
            replies = loadgen.run(request_all(self.port, lines, READY_TIMEOUT_S))
            if len(replies) != len(lines) or any("error" in r for r in replies.values()):
                raise RuntimeError(f"set-up requests failed: {replies}")
            covered |= {r["shard"] for r in replies.values()}
            k += 4

    @property
    def sid(self) -> int:
        return self.proc.pid  # session leader

    def stop(self) -> int:
        """Stop gracefully; returns how many of its processes outlived that."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        survivors = procfs.wait_session_gone(self.sid)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.wait()
        return len(survivors)


# --------------------------------------------------------------------- #
# inputs, generated from the workload seed only
# --------------------------------------------------------------------- #
def _shape_sequence(rng: random.Random, count: int, shapes) -> list[str]:
    """Exactly the stated mix (rounded), in seeded order."""
    seq: list[str] = []
    for name, share in shapes:
        seq += [name] * round(share * count)
    seq = (seq + [shapes[0][0]] * count)[:count]
    rng.shuffle(seq)
    return seq


def cold_schedule(seed: int, seconds: float) -> tuple[list, dict]:
    """Fixed-rate schedule of cold requests; returns it and per-id facts."""
    rng = random.Random(seed)
    count = int(COLD_RATE * seconds)
    shapes = _shape_sequence(rng, count, COLD_SHAPES)
    offset = rng.randrange(len(FAST_ALGORITHMS))
    schedule, facts, used = [], {}, set()
    for i in range(count):
        alg = FAST_ALGORITHMS[(i + offset) % len(FAST_ALGORITHMS)]
        base = COLD_SIZES[alg]
        n = rng.randint(round(base * 0.85), round(base * 1.15))
        spec = f"tree:{n}:{rng.randrange(2**31)}"
        while spec in used:
            spec = f"tree:{n}:{rng.randrange(2**31)}"
        used.add(spec)
        rid = f"c{i}"
        req = {"id": rid, "graph": spec, "algorithm": alg}
        if shapes[i] == "v2":
            req = {"v": 2, **req, "seed": rng.randrange(2**31)}
        elif shapes[i] == "v1_seeded":
            req.update(trials=COLD_V1_TRIALS, seed=rng.randrange(2**31))
        else:
            req.update(trials=COLD_V1_TRIALS, seed=None)
        schedule.append((i / COLD_RATE, rid, json.dumps(req)))
        facts[rid] = {"n": n, "shape": shapes[i]}
    return schedule, facts


def warm_hot_set(seed: int) -> list[dict]:
    """The 64 (graph, algorithm) pairs and their priming requests."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(WARM_GRAPHS):
        spec = f"tree:{rng.randint(*WARM_SIZE)}:{rng.randrange(2**31)}"
        for alg in WARM_ALGORITHMS:
            pairs.append({
                "graph": spec, "algorithm": alg,
                "trials": PRIME_TRIALS, "seed": rng.randrange(2**31),
            })
    return pairs


def warm_schedule(seed: int, seconds: float, pairs: list[dict]) -> tuple[list, dict]:
    """Uniform over the pairs; half exact repeats, half v2 default precision."""
    rng = random.Random(seed + 1)
    count = int(WARM_RATE * seconds)
    shapes = _shape_sequence(rng, count, (("repeat", 0.5), ("v2", 0.5)))
    schedule, facts = [], {}
    for i in range(count):
        p = rng.randrange(len(pairs))
        rid = f"w{i}"
        if shapes[i] == "repeat":
            req = {"id": rid, **pairs[p]}
        else:
            req = {"v": 2, "id": rid, "graph": pairs[p]["graph"],
                   "algorithm": pairs[p]["algorithm"], "seed": pairs[p]["seed"]}
        schedule.append((i / WARM_RATE, rid, json.dumps(req)))
        facts[rid] = {"pair": p, "shape": shapes[i]}
    return schedule, facts


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def _error(reply: dict) -> str | None:
    if "error" in reply:
        err = reply["error"]
        return err.get("code") if isinstance(err, dict) else reply.get("code", "error")
    return None


def check_cold(reply: dict, fact: dict) -> str | None:
    """Why a cold reply is wrong, or None."""
    if _error(reply):
        return f"error {_error(reply)}"
    if reply.get("cached") is not False:
        return "cached"
    if not reply.get("trials_run", 0) > 0:
        return "trials_run 0"
    if len(reply.get("counts", ())) != fact["n"]:
        return "counts length"
    if fact["shape"] == "v2":
        achieved = (reply.get("precision_achieved") or {}).get("node_ci", float("inf"))
        if achieved > NODE_CI and reply.get("realized_trials", 0) < MAX_TRIALS:
            return f"node_ci {achieved} misses target without reaching the cap"
    elif reply.get("trials") != COLD_V1_TRIALS:
        return "trials"
    return None


def check_warm(reply: dict, fact: dict, primed: list[dict]) -> str | None:
    """Why a warm reply is wrong, or None."""
    if _error(reply):
        return f"error {_error(reply)}"
    prime = primed[fact["pair"]]
    if reply.get("cached") is not True or reply.get("trials_run") != 0:
        return "not answered from cache"
    if reply.get("shard") != prime["shard"]:
        return "graph moved shard"
    if fact["shape"] == "repeat" and reply.get("counts") != prime["counts"]:
        return "repeat counts differ from priming"
    return None


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
def run(
    workload: str,
    seed: int,
    seconds: float,
    work: Path,
    trace_dir: Path | None,
    setups: int,
) -> dict:
    """Set up *setups* times, run the timed window once, check, tear down.

    Returns raw measurements: set-up samples, outcomes with their check
    results, the window, CPU and peak memory of the program's processes,
    and what survived each shutdown.
    """
    algorithms = FAST_ALGORITHMS if workload == "serve-cold" else WARM_ALGORITHMS
    setup_samples, leaked = [], 0
    shm_before = procfs.shm_segments()
    for _ in range(setups - 1):
        server = Server.launch(work, algorithms, trace_dir)
        setup_samples.append(server.setup_s)
        leaked += server.stop()
    server = Server.launch(work, algorithms, trace_dir)
    setup_samples.append(server.setup_s)
    out: dict = {"setup_samples": setup_samples, "prime_s": 0.0}
    try:
        if workload == "serve-cold":
            schedule, facts = cold_schedule(seed, seconds)
            limit, drain = COLD_LIMIT_S, COLD_DRAIN_S
        else:
            pairs = warm_hot_set(seed)
            t0 = time.monotonic()
            lines = {f"p{i}": json.dumps({"id": f"p{i}", **p}) for i, p in enumerate(pairs)}
            replies = loadgen.run(request_all(server.port, lines, PRIME_TIMEOUT_S))
            out["prime_s"] = time.monotonic() - t0
            primed = [replies.get(f"p{i}") or {} for i in range(len(pairs))]
            bad = [i for i, r in enumerate(primed) if _error(r) or r.get("trials") != PRIME_TRIALS]
            if bad:
                raise RuntimeError(f"priming failed for pairs {bad[:5]}")
            schedule, facts = warm_schedule(seed, seconds, pairs)
            limit, drain = WARM_LIMIT_S, WARM_DRAIN_S
        cpu0 = procfs.session_cpu_s(server.sid)
        outcomes, start, end = loadgen.run(
            open_loop(HOST, server.port, schedule, drain_s=drain)
        )
        cpu_s = procfs.session_cpu_s(server.sid) - cpu0
        # The front end and its shards are started by exec, not fork, so
        # their high-water marks share no anonymous pages and add up.
        peak = procfs.session_hwm(server.sid)
    finally:
        leaked += server.stop()
    problems = []
    for o in outcomes:
        reply = o.reply()
        if reply is None:
            problems.append("no reply by the deadline")
        elif workload == "serve-cold":
            problems.append(check_cold(reply, facts[o.rid]))
        else:
            problems.append(check_warm(reply, facts[o.rid], primed))
    out.update(
        outcomes=outcomes,
        problems=problems,
        limit_s=limit,
        window=(start, end),
        cpu_s=cpu_s,
        peak_rss=peak,
        peak_memory=peak,
        leak_processes=leaked,
        leak_shm=len(procfs.shm_segments() - shm_before),
    )
    return out
