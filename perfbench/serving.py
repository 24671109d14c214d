"""The serving workloads: ``repro serve --listen`` in a subprocess.

``serve-ingest``: one server over DS1 (scale 0.3, corpus of the workload
seed) with the default serving knobs.  One client process drives two
open-loop connections: single-claim ingests at 20/s and point queries
at 50/s.  Arrival times are a Poisson process conditioned on its count
(``rate * seconds`` uniform draws, sorted), derived from the seed only.
Every request is timed from its due time; how late the generator sent
it is recorded as a check.  Latencies are reported in calibration units,
against the speed the server's CPU showed during the driven window
(``common.SpeedSampler``).

``restart``: set-up builds a template store (DS1 at scale 1.0, 23
closed-loop ingests of 40 claims, checkpoints after batches 8 and 16,
then SIGKILL).  One op copies it (untimed), starts the server on the
copy and ends when a query answers at watermark 920, and is reported in
calibration units against the speed the server's CPU showed meanwhile.

Stream claims come from the DS1 corpus of seed + 1 with object ids
prefixed ``stream/``: same attributes and sources, new objects, no
conflicts.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from common import (
    HERE,
    ROOT,
    WORK_CPU,
    SpeedSampler,
    in_cal,
    on_cpus,
    op_metrics,
    process_peak_rss_mb,
    quantile,
    tail_quantile,
    trace_overhead,
)

import layers

WORK = ROOT / ".perfbench_work"
ALGORITHM = "MajorityVote"
INGEST_RATE = 20.0
QUERY_RATE = 50.0
GOOD_WITHIN_S = 1.0
MAX_LATE_P95_S = 0.05
SERVE_SETUP_REPEATS = 3
RESTART_BATCHES = 23
RESTART_BATCH_CLAIMS = 40
RESTART_WATERMARK = RESTART_BATCHES * RESTART_BATCH_CLAIMS
MIN_RESTARTS = 3
START_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 60.0
SNAPSHOT_KEYS = ("predictions", "source_trust", "partition", "silhouette_by_k")


def cli_args(seed: int, scale: float) -> list[str]:
    return ["serve", ALGORITHM, "DS1", "--scale", str(scale),
            "--seed", str(seed)]


def configs(args: list[str]):
    """The TDACConfig and ServiceConfig ``repro serve args`` runs with."""
    import repro.cli
    from repro.serving import ServiceConfig

    parsed = repro.cli._build_parser().parse_args(args)
    service_config = ServiceConfig(
        refit=parsed.refit,
        max_batch_size=parsed.max_batch_size,
        max_wait_ms=parsed.max_wait_ms,
        queue_capacity=parsed.queue_capacity,
        snapshot_every=parsed.snapshot_every,
        drain_timeout=parsed.drain_timeout,
        idle_timeout=parsed.idle_timeout,
        max_inflight_per_connection=parsed.max_inflight,
        max_line_bytes=parsed.max_line_bytes,
    )
    return repro.cli._config_from_args(parsed), service_config


def stream_claims(seed: int, n: int) -> list:
    from repro.data.types import Claim
    from repro.datasets import load

    claims = []
    for claim in load("DS1", seed=seed + 1, scale=0.3).iter_claims():
        if len(claims) == n:
            break
        claims.append(Claim(claim.source, f"stream/{claim.object}",
                            claim.attribute, claim.value))
    return claims


def wire(claim) -> dict:
    return {"source": claim.source, "object": claim.object,
            "attribute": claim.attribute, "value": claim.value}


def normalized(payload: dict) -> dict:
    """The result fields of a ``tdac-result/v1`` payload, JSON-exact."""
    picked = {key: payload[key] for key in SNAPSHOT_KEYS}
    picked["predictions"] = sorted(
        picked["predictions"], key=lambda p: (p["object"], p["attribute"])
    )
    return json.loads(json.dumps(picked, sort_keys=True, default=str))


def offline_reference(initial, claims, config) -> tuple[dict, str]:
    """Offline ``TDAC.run`` over ``initial`` plus ``claims``, normalized."""
    from repro.algorithms import create
    from repro.core import TDAC
    from repro.core.incremental import extend_dataset

    dataset = extend_dataset(initial, claims) if claims else initial
    result = TDAC(create(ALGORITHM), config=config).run(dataset)
    return normalized(result.to_dict()), dataset.fingerprint


# ----------------------------------------------------------------------
# Server process and client connection
# ----------------------------------------------------------------------


class Server:
    """``repro serve --listen`` started through ``launch.py``.

    The constructor returns once the server announced it is listening;
    ``spawned`` and ``listening`` are the two ends of its start-up.
    """

    def __init__(self, args, store_dir, trace_out=None) -> None:
        command = [sys.executable, str(HERE / "launch.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [*args, "--store-dir", str(store_dir),
                    "--listen", "127.0.0.1:0"]
        self.log_path = store_dir.with_suffix(".log")
        self.trace_out = trace_out
        with open(self.log_path, "w") as log, on_cpus({WORK_CPU}):
            self.spawned = time.perf_counter()
            self.proc = subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                text=True,
            )
        try:
            event = self._read_event(START_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.listening = time.perf_counter()
        self.port = event["port"]

    def _read_event(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("{"):
            raise RuntimeError(
                f"server did not start: {self.log_path.read_text()[-2000:]}"
            )
        return json.loads(line)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> dict | None:
        """SIGTERM (graceful drain), wait, and load the trace if any."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        self.proc.stdout.close()
        if self.trace_out is None:
            return None
        return json.loads(self.trace_out.read_text())


class Connection:
    """One JSON-lines connection; requests are matched to replies by id."""

    @classmethod
    async def open(cls, port: int) -> "Connection":
        self = cls()
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 28
        )
        self.pending: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.listener = asyncio.create_task(self._listen())
        return self

    async def _listen(self) -> None:
        while line := await self.reader.readline():
            received = time.perf_counter()
            reply = json.loads(line)
            future = self.pending.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result((received, reply))

    def send(self, request: dict) -> asyncio.Future:
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.pending[self.next_id] = future
        line = json.dumps({**request, "id": self.next_id}) + "\n"
        self.writer.write(line.encode())
        return future

    async def request(self, request: dict) -> dict:
        future = self.send(request)
        await self.writer.drain()
        _, reply = await asyncio.wait_for(future, REPLY_TIMEOUT_S)
        return reply

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        self.listener.cancel()
        try:
            await self.listener
        except asyncio.CancelledError:
            pass


async def open_loop(conn, schedule, requests, t0) -> list[list]:
    """Send ``requests`` at ``t0 + schedule``; ``[due, sent, future]``."""
    sent = []
    for offset, request in zip(schedule, requests):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent.append([due, time.perf_counter(), conn.send(request)])
    await conn.writer.drain()
    return sent


async def settle(sent: list[list]) -> list[dict]:
    """Wait for the replies; ``{due, sent, received, reply}`` per request."""
    futures = [future for _, _, future in sent]
    if futures:
        await asyncio.wait(futures, timeout=REPLY_TIMEOUT_S)
    out = []
    for due, sent_at, future in sent:
        received, reply = future.result() if future.done() else (None, None)
        out.append({"due": due, "sent": sent_at, "received": received,
                    "reply": reply})
    return out


def poisson_schedule(seed: int, stream: str, rate: float, seconds: float):
    """Arrival offsets of a Poisson process given its count, from the seed."""
    rng = random.Random(f"{seed}:{stream}")
    count = round(rate * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


# ----------------------------------------------------------------------
# serve-ingest
# ----------------------------------------------------------------------


async def drive_ingest(port, seed, seconds, claims, facts):
    ingest_conn = await Connection.open(port)
    query_conn = await Connection.open(port)
    try:
        ingest_times = poisson_schedule(seed, "ingest", INGEST_RATE, seconds)
        query_times = poisson_schedule(seed, "query", QUERY_RATE, seconds)
        rng = random.Random(f"{seed}:facts")
        ingests = [{"op": "ingest", "claims": [wire(c)]}
                   for c in claims[: len(ingest_times)]]
        queries = [
            {"op": "query", "object": fact.object,
             "attribute": fact.attribute}
            for fact in (rng.choice(facts) for _ in query_times)
        ]
        t0 = time.perf_counter() + 0.05
        sent_ingests, sent_queries = await asyncio.gather(
            open_loop(ingest_conn, ingest_times, ingests, t0),
            open_loop(query_conn, query_times, queries, t0),
        )
        ingest_ops = await settle(sent_ingests)
        query_ops = await settle(sent_queries)
        stats = await query_conn.request({"op": "stats"})
        snapshot = await query_conn.request({"op": "snapshot"})
    finally:
        await ingest_conn.close()
        await query_conn.close()
    return t0, ingest_ops, query_ops, stats["stats"], snapshot["snapshot"]


def serve_session(seed, seconds, work, name, claims, facts, traced) -> dict:
    """Start a server, drive one window, stop it; raw observations."""
    store = work / name
    trace_out = work / f"{name}.trace.json" if traced else None
    server = Server(cli_args(seed, 0.3), store, trace_out)
    try:
        with SpeedSampler() as sampler:
            t0, ingest_ops, query_ops, stats, snapshot = asyncio.run(
                drive_ingest(server.port, seed, seconds, claims, facts)
            )
        peak = server.peak_rss_mb()
    finally:
        trace = server.stop()
    return {
        "server": server, "store": store, "t0": t0, "ingest": ingest_ops,
        "query": query_ops, "stats": stats, "snapshot": snapshot,
        "peak_rss_mb": peak, "trace": trace,
        "calibration_s": sampler.calibration(),
    }


def wal_log(store) -> tuple[dict, set]:
    """Admitted claims by offset and the committed offsets of a store."""
    from repro.store import TruthStore
    from repro.store.records import decode_claim

    admits, committed = {}, set()
    for record in TruthStore(store).wal.scan().records:
        if record.type == "admit":
            admits[int(record.body["offset"])] = tuple(
                decode_claim(c) for c in record.body["claims"]
            )
        elif record.type == "commit":
            committed.update(int(o) for o, _ in record.body["applied"])
    return admits, committed


def check_session(session, claims, initial, config) -> dict:
    """Acked claims are logged and committed; snapshot equals offline."""
    acked = {}
    for op, claim in zip(session["ingest"], claims):
        reply = op["reply"]
        if reply is not None and reply.get("ok"):
            acked[int(reply["offset"])] = claim
    admits, committed = wal_log(session["store"])
    in_log = all(
        admits.get(offset) == (claim,) and offset in committed
        for offset, claim in acked.items()
    )
    ordered = [acked[offset] for offset in sorted(acked)]
    expected, fingerprint = offline_reference(initial, ordered, config)
    snapshot = session["snapshot"]
    queries_ok = all(
        op["reply"] is not None and op["reply"].get("found")
        for op in session["query"]
    )
    lateness = [op["sent"] - op["due"]
                for op in session["ingest"] + session["query"]]
    return {
        "acked_claims_in_final_log": in_log,
        "snapshot_watermark_covers_acks":
            snapshot["serving"]["watermark"] == len(acked),
        "snapshot_identical_to_offline": (
            normalized(snapshot) == expected
            and snapshot["serving"]["dataset_fingerprint"] == fingerprint
        ),
        "queries_answered": queries_ok,
        "generator_on_time": quantile(lateness, 0.95) <= MAX_LATE_P95_S,
    }


def ingest_latencies(session) -> list[float]:
    return [
        op["received"] - op["due"]
        for op in session["ingest"]
        if op["reply"] is not None and op["reply"].get("ok")
    ]


def ingest_costs(session) -> list[float]:
    """Ingest latencies in calibration units."""
    cal = session["calibration_s"]
    return [in_cal(s, cal) for s in ingest_latencies(session)]


def run_serve_ingest(seed, seconds, trace, work) -> dict:
    from repro.datasets import load

    args = cli_args(seed, 0.3)
    config, service_config = configs(args)
    initial = load("DS1", seed=seed, scale=0.3)
    facts = sorted(initial.facts, key=lambda f: (f.object, f.attribute))
    claims = stream_claims(seed, round(INGEST_RATE * seconds))

    setups = []
    # The traced run reports no set-up time, so it starts one server.
    for index in range(0 if trace else SERVE_SETUP_REPEATS - 1):
        server = Server(args, work / f"setup-{index}")
        setups.append(server.listening - server.spawned)
        server.stop()
    session = serve_session(seed, seconds, work, "serve", claims, facts,
                            traced=False)
    server = session["server"]
    setups.append(server.listening - server.spawned)
    checks = check_session(session, claims, initial, config)
    sessions = [session]
    if trace:
        traced = serve_session(seed, seconds, work, "serve-traced", claims,
                               facts, traced=True)
        for name, ok in check_session(traced, claims, initial, config).items():
            checks[f"traced_{name}"] = ok
        sessions.append(traced)

    ops = [op for s in sessions for op in s["ingest"] + s["query"]]
    failed = sum(
        op["reply"] is None or not op["reply"].get("ok") for op in ops
    )
    latencies = ingest_latencies(session)
    good = sum(latency <= GOOD_WITHIN_S for latency in latencies)
    lateness = [op["sent"] - op["due"]
                for op in session["ingest"] + session["query"]]
    out = {
        "provenance": {
            "dataset_fingerprint": initial.fingerprint,
            "tdac_config_fingerprint": config.fingerprint(),
            "service_config_fingerprint": service_config.fingerprint(),
        },
        "checks": checks,
        "attempted": len(ops) + len(checks),
        "failed": failed + sum(not ok for ok in checks.values()),
        "samples": {
            "setup_s": setups,
            "calibration_s": session["calibration_s"],
            "ingests": len(session["ingest"]),
            "queries": len(session["query"]),
            "ingest_visible_s_p50": statistics.median(latencies),
            "ingest_visible_s_tail": quantile(
                latencies, tail_quantile(len(latencies))
            ),
            "ingest_goodput_per_s": good / seconds,
            "generator_late_s_p95": quantile(lateness, 0.95),
            "generator_late_s_max": max(lateness),
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            **op_metrics(ingest_costs(session), good,
                         len(session["ingest"])),
            "peak_rss_mb": session["peak_rss_mb"],
        },
    }
    if trace:
        out["per_layer"] = serve_layers(session, sessions[1])
    return out


def serve_layers(untraced, traced) -> dict:
    """Per ingest op: layer seconds and counts, from the traced server."""
    trace = traced["trace"]
    ingest = traced["ingest"]
    n = len(ingest)
    t0 = traced["t0"]
    t1 = max(op["received"] or t0 for op in ingest + traced["query"])
    spans = trace["spans"]
    totals = layers.summarize(spans, trace["counts"], t0, t1)
    metrics = {name: value / n for name, value in totals.items()}
    if totals.get("serving.queries"):
        metrics["serving.query_s"] = (
            totals["serving.query_s"] / totals["serving.queries"]
        )
    tickets = trace["tickets"]
    waits, covered, op_time = [], 0.0, 0.0
    for op in ingest:
        reply = op["reply"]
        if reply is None or not reply.get("ok"):
            continue
        ticket = tickets.get(str(reply["offset"]), {})
        if {"a0", "a1", "p0", "c1"} <= ticket.keys():
            waits.append(ticket["p0"] - ticket["a1"])
            covered += ticket["c1"] - ticket["a0"]
        op_time += op["received"] - op["due"]
    metrics["serving.queue_wait_s"] = statistics.mean(waits) if waits else 0.0
    metrics["unattributed_share"] = 1.0 - covered / op_time
    stats = traced["stats"]
    metrics["serving.batches"] = stats["batches"]
    metrics["serving.claims_per_batch"] = (
        stats["applied_claims"] / stats["batches"] if stats["batches"] else 0.0
    )
    metrics["net.requests"] = stats["net"]["net.requests"]
    metrics["net.overloaded"] = stats["net"]["net.overloaded"]
    metrics["store.wal_bytes"] = stats["store"]["durable_bytes"]
    rtts = [op["received"] - op["due"] for op in untraced["query"]
            if op["received"] is not None]
    metrics["net.query_rtt_s"] = statistics.median(rtts)
    metrics["net.query_rtt_tail_s"] = quantile(rtts, tail_quantile(len(rtts)))
    metrics["process.import_s"] = (
        trace["imported_at"] - traced["server"].spawned
    )
    metrics["trace_overhead"] = trace_overhead(
        ingest_costs(traced), ingest_costs(untraced)
    )
    return metrics


# ----------------------------------------------------------------------
# restart
# ----------------------------------------------------------------------


async def ingest_batches(port, claims) -> bool:
    """Closed loop: one awaited ingest of ``RESTART_BATCH_CLAIMS`` each."""
    conn = await Connection.open(port)
    try:
        for index in range(0, len(claims), RESTART_BATCH_CLAIMS):
            batch = claims[index:index + RESTART_BATCH_CLAIMS]
            reply = await conn.request(
                {"op": "ingest", "claims": [wire(c) for c in batch]}
            )
            if not reply.get("ok") or reply["watermark"] != index + len(batch):
                return False
    finally:
        await conn.close()
    return True


async def first_answer(port, fact) -> tuple[float, dict, dict]:
    conn = await Connection.open(port)
    try:
        future = conn.send({"op": "query", "object": fact[0],
                            "attribute": fact[1]})
        await conn.writer.drain()
        received, reply = await asyncio.wait_for(future, REPLY_TIMEOUT_S)
        snapshot = await conn.request({"op": "snapshot"})
    finally:
        await conn.close()
    return received, reply, snapshot["snapshot"]


def run_restart(seed, seconds, trace, work) -> dict:
    from repro.datasets import load

    args = cli_args(seed, 1.0)
    config, service_config = configs(args)
    claims = stream_claims(seed, RESTART_WATERMARK)
    template = work / "template"
    server = Server(args, template)
    try:
        logged = asyncio.run(ingest_batches(server.port, claims))
    finally:
        server.kill()
    setup = time.perf_counter() - server.spawned
    initial = load("DS1", seed=seed, scale=1.0)
    expected, fingerprint = offline_reference(initial, claims, config)
    fact = (claims[-1].object, claims[-1].attribute)

    checks = {"template_logged": logged}
    traced_ops, untraced_ops = [], []
    failed = 0
    cals = []
    begin = time.perf_counter()
    while (
        time.perf_counter() - begin < seconds
        or len(untraced_ops) < (2 if trace else MIN_RESTARTS)
        or (trace and len(traced_ops) < 2)
    ):
        use_trace = bool(trace) and len(traced_ops) <= len(untraced_ops)
        index = len(traced_ops) + len(untraced_ops)
        store = work / f"restart-{index}"
        shutil.copytree(template, store)
        trace_out = work / f"restart-{index}.trace.json" if use_trace else None
        with SpeedSampler() as sampler:
            server = Server(args, store, trace_out)
            try:
                received, reply, snapshot = asyncio.run(
                    first_answer(server.port, fact)
                )
                peak = server.peak_rss_mb()
            finally:
                server_trace = server.stop()
        shutil.rmtree(store)
        ok = (
            reply.get("found") is True
            and reply.get("watermark") == RESTART_WATERMARK
            and snapshot["serving"]["watermark"] == RESTART_WATERMARK
            and normalized(snapshot) == expected
            and snapshot["serving"]["dataset_fingerprint"] == fingerprint
        )
        failed += not ok
        op_s = received - server.spawned
        cals.append(sampler.calibration())
        op = {"op_s": op_s, "op_cal": in_cal(op_s, cals[-1]),
              "peak_rss_mb": peak, "ok": ok, "server": server,
              "received": received, "trace": server_trace}
        (traced_ops if use_trace else untraced_ops).append(op)
    checks["restored_at_watermark_and_identical_to_offline"] = failed == 0

    costs = [op["op_cal"] for op in untraced_ops]
    ops = traced_ops + untraced_ops
    out = {
        "provenance": {
            "dataset_fingerprint": initial.fingerprint,
            "tdac_config_fingerprint": config.fingerprint(),
            "service_config_fingerprint": service_config.fingerprint(),
        },
        "checks": checks,
        "attempted": len(ops) + 1,
        "failed": failed + (not logged),
        "samples": {"setup_s": [setup],
                    "op_s": [op["op_s"] for op in untraced_ops],
                    "op_cal": costs,
                    "op_cal_traced": [op["op_cal"] for op in traced_ops],
                    "calibration_s": cals},
        "end_to_end": {
            "setup_s": setup,
            **op_metrics(costs, len(ops) + logged - failed, len(ops) + 1),
            "peak_rss_mb": statistics.median(
                op["peak_rss_mb"] for op in untraced_ops
            ),
        },
    }
    if trace:
        out["per_layer"] = restart_layers(traced_ops, untraced_ops)
    return out


def restart_layers(traced_ops, untraced_ops) -> dict:
    """Per restart op: layer seconds and counts, import time, coverage."""
    metrics: dict[str, float] = {}
    covered = op_time = 0.0
    for op in traced_ops:
        trace = op["trace"]
        spawned = op["server"].spawned
        spans = trace["spans"]
        totals = layers.summarize(spans, trace["counts"], spawned,
                                  op["received"])
        totals["process.import_s"] = trace["imported_at"] - spawned
        for name, value in totals.items():
            metrics[name] = metrics.get(name, 0.0) + value / len(traced_ops)
        roots = sum(
            end - start for _, parent, _, start, end, _ in spans
            if parent == 0 and end <= op["received"]
        )
        covered += totals["process.import_s"] + roots
        op_time += op["op_s"]
    metrics["unattributed_share"] = 1.0 - covered / op_time
    metrics["trace_overhead"] = trace_overhead(
        [op["op_cal"] for op in traced_ops],
        [op["op_cal"] for op in untraced_ops],
    )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "serve-ingest":
            return run_serve_ingest(seed, seconds, trace, work)
        return run_restart(seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
