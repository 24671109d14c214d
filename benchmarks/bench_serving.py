"""Load/soak harness for the network serving stack.

Drives a ``repro serve --listen`` subprocess with Poisson open-loop
traffic from many concurrent asyncio clients replaying the
stocks/flights/exam simulators (the conflicting-source scenarios of the
truth-discovery evaluations), layered with fault injection:

* **mid-frame disconnects** — clients that vanish halfway through a
  request line (torn frames);
* **byte-truncated writes** — framed lines whose tail bytes are missing
  (malformed JSON, answered loudly);
* **slow-loris clients** — one byte every couple of seconds, never
  completing a frame (cut by the server's idle timeout);
* **kill-and-restore** — the serving process is SIGKILLed mid-soak and
  relaunched over the same ``--store-dir``, exercising WAL recovery
  while live clients reconnect with capped exponential backoff.

After the soak the server is drained with SIGTERM and the store is
re-opened in-process via ``TruthService.restore()``; the harness then
asserts the two invariants the serving stack promises before reporting
any numbers:

1. **no lost acked claims** — every claim batch a client saw
   ``{"ok": true}`` for is present in the recovered corpus;
2. **bit-identity** — the recovered snapshot equals an offline
   ``TDAC.run`` over the accumulated claim log, field for field.

The emitted JSON records sustained claims/sec, p50/p90/p99 ingest
latency, snapshot staleness (pending-claims lag sampled during the
soak), fault/overload counters and the kill/restart timeline.

Entry points: standalone (``make bench-serving-smoke`` runs ``--config
smoke``; ``--config soak`` produced the committed BENCH_serving.json)
and pytest (collected with the bench suite, runs the smoke config).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import random
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.algorithms import create
from repro.core import TDAC
from repro.datasets.exam import make_exam
from repro.datasets.flights import make_flights
from repro.datasets.stocks import make_stocks
from repro.serving import (
    AsyncTruthClient,
    RetryPolicy,
    TruthClientError,
    TruthService,
)

SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

CONFIGS = {
    # Scaled-down soak for `make bench-serving-smoke` / CI: ~30s wall.
    "smoke": {
        "clients": 24,
        "fault_clients": 4,
        "duration": 20.0,
        "rate_hz": 2.0,
        "kill_fraction": 0.4,
        "pool_limit": 1_200,
        "batch_max": 3,
        "algorithm": "MajorityVote",
        "dataset": "DS1",
        "scale": 0.05,
        "seed": 0,
        "max_batch_size": 256,
        "max_wait_ms": 25.0,
        "queue_capacity": 2_048,
        "snapshot_every": 8,
        "idle_timeout": 15.0,
        "drain_timeout": 30.0,
        "k_max": 6,
        "n_init": 2,
    },
    # The committed BENCH_serving.json: >=100 concurrent clients.  The
    # kill lands early enough that the WAL-replay restore (tens of
    # seconds at this corpus size) still leaves a live post-restart
    # phase with reconnected clients.
    "soak": {
        "clients": 120,
        "fault_clients": 12,
        "duration": 120.0,
        "rate_hz": 2.0,
        "kill_fraction": 0.33,
        "pool_limit": 12_000,
        "batch_max": 3,
        "algorithm": "MajorityVote",
        "dataset": "DS1",
        "scale": 0.05,
        "seed": 0,
        "max_batch_size": 512,
        "max_wait_ms": 25.0,
        "queue_capacity": 8_192,
        "snapshot_every": 4,
        "idle_timeout": 15.0,
        "drain_timeout": 60.0,
        "k_max": 6,
        "n_init": 2,
    },
}


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def build_claim_pool(limit: int, seed: int) -> list[dict]:
    """Wire-format claims replaying the three real-data simulators.

    Identifier namespaces are prefixed per corpus so the streams never
    conflict with each other (or the initial corpus) at the one-truth
    level — conflicts *within* each simulator's sources are the point.
    """
    corpora = [
        ("stocks", make_stocks(n_objects=60, seed=seed).dataset),
        ("flights", make_flights(n_objects=60, seed=seed).dataset),
        ("exam", make_exam(n_attributes=32, seed=seed)),
    ]
    pool = []
    for name, ds in corpora:
        for claim in ds.iter_claims():
            pool.append(
                {
                    "source": f"{name}/{claim.source}",
                    "object": f"{name}/{claim.object}",
                    "attribute": f"{name}/{claim.attribute}",
                    "value": claim.value,
                }
            )
    rng = random.Random(seed)
    rng.shuffle(pool)
    return pool[:limit]


class SoakState:
    """Shared counters every client task reports into."""

    def __init__(self) -> None:
        self.acked: list[dict] = []
        self.latencies: list[float] = []
        self.offered = 0
        self.rejected_responses = 0
        self.client_failures = 0
        self.queries = 0
        self.query_mismatches = 0
        self.client_stats: list[dict] = []
        self.fault_counters = {
            "mid_frame": 0,
            "truncated": 0,
            "slowloris": 0,
        }
        self.samples: list[dict] = []
        self.events: dict = {}


def _client_retry() -> RetryPolicy:
    # Generous: must ride out the kill-and-restore window mid-soak.
    return RetryPolicy(
        max_attempts=50,
        base_backoff_seconds=0.05,
        max_backoff_seconds=1.0,
        max_retry_after_seconds=2.0,
    )


async def ingest_client(
    k: int,
    cfg: dict,
    port: int,
    claims: list[dict],
    state: SoakState,
    t_end: float,
) -> None:
    rng = random.Random(cfg["seed"] * 7_919 + k)
    client = AsyncTruthClient(
        "127.0.0.1",
        port,
        connect_timeout=2.0,
        request_timeout=60.0,
        retry=_client_retry(),
    )
    acked_here: list[dict] = []
    idx = 0
    try:
        while True:
            await asyncio.sleep(rng.expovariate(cfg["rate_hz"]))
            if time.monotonic() >= t_end:
                break
            if idx >= len(claims) or (acked_here and rng.random() < 0.1):
                # Interleave reads: verify a claim this client was acked.
                if not acked_here:
                    continue
                probe = rng.choice(acked_here)
                try:
                    answer = await client.query(
                        probe["object"], probe["attribute"]
                    )
                except TruthClientError:
                    state.client_failures += 1
                    continue
                state.queries += 1
                # An acked claim's fact must exist in every later
                # snapshot (its value is the *resolved* truth, which may
                # legitimately differ from this one source's claim).
                if not answer.get("found"):
                    state.query_mismatches += 1
                continue
            n = min(len(claims) - idx, rng.randint(1, cfg["batch_max"]))
            batch = claims[idx : idx + n]
            state.offered += n
            started = time.perf_counter()
            try:
                response = await client.request(
                    {"op": "ingest", "claims": batch}
                )
            except TruthClientError:
                # At-least-once: the batch stays at idx for a later try.
                state.client_failures += 1
                state.offered -= n
                continue
            idx += n
            if response.get("ok"):
                state.latencies.append(time.perf_counter() - started)
                state.acked.extend(batch)
                acked_here.extend(batch)
            else:
                state.rejected_responses += 1
    finally:
        state.client_stats.append(dict(client.stats))
        await client.close()


async def fault_client(
    kind: str, cfg: dict, port: int, state: SoakState, t_end: float, k: int
) -> None:
    rng = random.Random(cfg["seed"] * 104_729 + k)
    while time.monotonic() < t_end:
        await asyncio.sleep(rng.uniform(0.5, 1.5))
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port), 2.0
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            continue  # server mid-restart; faults resume afterwards
        try:
            if kind == "mid_frame":
                writer.write(b'{"op": "ingest", "claims": [{"sou')
                await writer.drain()
                await asyncio.sleep(rng.uniform(0.05, 0.2))
                writer.transport.abort()
            elif kind == "truncated":
                line = json.dumps(
                    {
                        "op": "ingest",
                        "claims": [
                            {
                                "source": "fault",
                                "object": f"trunc-{k}",
                                "attribute": "a",
                                "value": "v",
                            }
                        ],
                    }
                ).encode()
                writer.write(line[: len(line) // 2] + b"\n")
                await writer.drain()
                with contextlib.suppress(
                    asyncio.TimeoutError, ConnectionError, OSError
                ):
                    await asyncio.wait_for(reader.readline(), 2.0)
                writer.close()
            elif kind == "slowloris":
                payload = b'{"op": "stats"}\n'
                for byte in payload:
                    if time.monotonic() >= t_end:
                        break
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(2.0)
                writer.close()
            state.fault_counters[kind] += 1
        except (ConnectionError, OSError):
            continue


async def staleness_sampler(
    port: int, state: SoakState, t_end: float, interval: float = 0.5
) -> None:
    client = AsyncTruthClient(
        "127.0.0.1",
        port,
        connect_timeout=1.0,
        request_timeout=10.0,
        retry=RetryPolicy(max_attempts=2, base_backoff_seconds=0.05),
    )
    started = time.monotonic()
    try:
        while time.monotonic() < t_end:
            try:
                response = await client.request({"op": "stats"})
            except TruthClientError:
                await asyncio.sleep(interval)
                continue
            if response.get("ok"):
                stats = response["stats"]
                state.samples.append(
                    {
                        "t": round(time.monotonic() - started, 3),
                        "pending_claims": stats["pending_claims"],
                        "watermark": stats["watermark"],
                        "version": stats["version"],
                        "net": stats.get("net", {}),
                    }
                )
            await asyncio.sleep(interval)
    finally:
        await client.close()


# ----------------------------------------------------------------------
# Server process management
# ----------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """The ``repro serve --listen`` subprocess under test."""

    def __init__(self, cfg: dict, port: int, store_dir: str) -> None:
        self.cfg = cfg
        self.port = port
        self.store_dir = store_dir
        self.proc: subprocess.Popen | None = None

    def launch(self, timeout: float = 120.0) -> None:
        cfg = self.cfg
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            cfg["algorithm"],
            cfg["dataset"],
            "--scale",
            str(cfg["scale"]),
            "--seed",
            str(cfg["seed"]),
            "--listen",
            f"127.0.0.1:{self.port}",
            "--store-dir",
            self.store_dir,
            "--max-batch-size",
            str(cfg["max_batch_size"]),
            "--max-wait-ms",
            str(cfg["max_wait_ms"]),
            "--queue-capacity",
            str(cfg["queue_capacity"]),
            "--snapshot-every",
            str(cfg["snapshot_every"]),
            "--idle-timeout",
            str(cfg["idle_timeout"]),
            "--drain-timeout",
            str(cfg["drain_timeout"]),
            # Bound the per-refit clustering sweep: the soak keeps
            # growing the attribute set, and an unbounded k-sweep makes
            # refit (and hence WAL replay on restore) cost balloon.
            "--k-max",
            str(cfg["k_max"]),
            "--n-init",
            str(cfg["n_init"]),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # Append-mode stderr log survives kills and relaunches — the
        # first place to look when a soak goes sideways.
        with open(
            Path(self.store_dir) / "server-stderr.log", "ab"
        ) as stderr_log:
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=stderr_log,
                env=env,
            )
        event = self._read_event(timeout)
        if event.get("event") != "listening":
            raise RuntimeError(f"expected listening event, got {event!r}")

    def _read_event(self, timeout: float) -> dict:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        buf = b""
        stream = self.proc.stdout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early (rc={self.proc.returncode})"
                )
            ready, _, _ = select.select([stream], [], [], 0.25)
            if not ready:
                continue
            chunk = stream.readline()
            if not chunk:
                continue
            buf = chunk
            return json.loads(buf)
        raise TimeoutError("server never announced its listening port")

    def kill(self) -> None:
        assert self.proc is not None
        self.proc.kill()  # SIGKILL: no drain, no final checkpoint
        self.proc.wait()

    def terminate_and_wait(self, timeout: float = 120.0) -> dict:
        """SIGTERM -> graceful drain; returns the drained event."""
        assert self.proc is not None
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server drain failed (rc={self.proc.returncode})"
            )
        for line in reversed(out.decode().splitlines()):
            with contextlib.suppress(json.JSONDecodeError):
                event = json.loads(line)
                if event.get("event") == "drained":
                    return event
        return {}


async def kill_and_restore(
    server: ServerProcess, cfg: dict, t_start: float, state: SoakState
) -> None:
    kill_at = t_start + cfg["duration"] * cfg["kill_fraction"]
    await asyncio.sleep(max(0.0, kill_at - time.monotonic()))
    server.kill()
    state.events["killed_at_seconds"] = round(
        time.monotonic() - t_start, 3
    )
    restart_started = time.monotonic()
    # Relaunch over the same store dir: the CLI auto-resumes via
    # TruthService.restore() (checkpoint + WAL tail replay).
    await asyncio.to_thread(server.launch)
    state.events["restart_seconds"] = round(
        time.monotonic() - restart_started, 3
    )


# ----------------------------------------------------------------------
# Soak + verification
# ----------------------------------------------------------------------


async def drive_traffic(
    cfg: dict, server: ServerProcess, pool: list[dict], state: SoakState
) -> None:
    t_start = time.monotonic()
    t_end = t_start + cfg["duration"]
    n = cfg["clients"]
    tasks = [
        ingest_client(k, cfg, server.port, pool[k::n], state, t_end)
        for k in range(n)
    ]
    kinds = ("mid_frame", "truncated", "slowloris")
    tasks.extend(
        fault_client(
            kinds[k % len(kinds)], cfg, server.port, state, t_end, k
        )
        for k in range(cfg["fault_clients"])
    )
    tasks.append(staleness_sampler(server.port, state, t_end))
    if cfg["kill_fraction"] is not None:
        tasks.append(kill_and_restore(server, cfg, t_start, state))
    await asyncio.gather(*tasks)
    state.events["traffic_seconds"] = round(time.monotonic() - t_start, 3)


def verify_recovery(cfg: dict, store_dir: str, state: SoakState) -> dict:
    """Restore the store in-process and check the two soak invariants."""
    service = TruthService.restore(store_dir)
    try:
        service.drain(timeout=120.0)
        snapshot = service.snapshot()
        replayed = service.replay_dataset(snapshot.watermark)
        offline = TDAC(create(cfg["algorithm"]), config=service.config).run(
            replayed
        )
        identical = (
            dict(snapshot.predictions) == dict(offline.result.predictions)
            and dict(snapshot.source_trust)
            == dict(offline.result.source_trust)
            and snapshot.partition == offline.partition
        )
        corpus = {
            (c.source, c.object, c.attribute): c.value
            for c in replayed.iter_claims()
        }
        lost = sum(
            1
            for claim in state.acked
            if corpus.get(
                (claim["source"], claim["object"], claim["attribute"])
            )
            != claim["value"]
        )
        return {
            "snapshot_bit_identical": identical,
            "acked_claims": len(state.acked),
            "lost_acked_claims": lost,
            "query_mismatches": state.query_mismatches,
            "watermark": snapshot.watermark,
            "version": snapshot.version,
            "corpus_claims": len(corpus),
        }
    finally:
        service.stop()


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_soak(config_name: str, overrides: dict | None = None) -> dict:
    cfg = dict(CONFIGS[config_name])
    cfg.update(overrides or {})
    pool = build_claim_pool(cfg["pool_limit"], cfg["seed"])
    state = SoakState()
    store_dir = tempfile.mkdtemp(prefix="bench-serving-store-")
    port = free_port()
    server = ServerProcess(cfg, port, store_dir)
    try:
        server.launch()
        asyncio.run(drive_traffic(cfg, server, pool, state))
        drained = server.terminate_and_wait(
            timeout=cfg["drain_timeout"] + 120.0
        )
        verification = verify_recovery(cfg, store_dir, state)
    except BaseException:
        log = Path(store_dir) / "server-stderr.log"
        if log.exists():
            tail = log.read_text()[-4000:]
            if tail.strip():
                print(f"--- server stderr tail ---\n{tail}", file=sys.stderr)
        raise
    finally:
        if server.proc is not None and server.proc.poll() is None:
            server.proc.kill()
            server.proc.communicate()
        shutil.rmtree(store_dir, ignore_errors=True)

    duration = state.events.get("traffic_seconds", cfg["duration"])
    pending = [s["pending_claims"] for s in state.samples]
    record = {
        "schema": "tdac-bench-serving/v1",
        "config": config_name,
        "knobs": cfg,
        "clients": cfg["clients"],
        "fault_clients": cfg["fault_clients"],
        "duration_seconds": duration,
        "offered_claims": state.offered,
        "acked_claims": len(state.acked),
        "rejected_responses": state.rejected_responses,
        "client_failures": state.client_failures,
        "queries": state.queries,
        "sustained_claims_per_second": round(
            len(state.acked) / duration, 3
        ),
        "ingest_latency_seconds": {
            "count": len(state.latencies),
            "p50": round(_percentile(state.latencies, 0.50), 6),
            "p90": round(_percentile(state.latencies, 0.90), 6),
            "p99": round(_percentile(state.latencies, 0.99), 6),
            "max": round(max(state.latencies), 6)
            if state.latencies
            else 0.0,
        },
        "snapshot_staleness": {
            "samples": len(state.samples),
            "pending_claims_mean": round(
                sum(pending) / len(pending), 3
            )
            if pending
            else 0.0,
            "pending_claims_max": max(pending) if pending else 0,
            "final_watermark": state.samples[-1]["watermark"]
            if state.samples
            else 0,
        },
        "client_totals": {
            key: sum(s.get(key, 0) for s in state.client_stats)
            for key in (
                "requests",
                "responses",
                "retries",
                "reconnects",
                "overloaded",
                "failures",
            )
        },
        "faults_injected": dict(state.fault_counters),
        "kill": {
            "killed_at_seconds": state.events.get("killed_at_seconds"),
            "restart_seconds": state.events.get("restart_seconds"),
        },
        # Two views of the server counters: the drained event covers
        # the final (post-restore) process only; the last stats sample
        # caught the busiest live process before the drain.
        "net": drained.get("net", {}),
        "net_last_sample": next(
            (
                s["net"]
                for s in reversed(state.samples)
                if s.get("net", {}).get("net.requests")
            ),
            {},
        ),
        "verification": verification,
    }
    failures = []
    if not verification["snapshot_bit_identical"]:
        failures.append("recovered snapshot diverged from offline TDAC.run")
    if verification["lost_acked_claims"]:
        failures.append(
            f"{verification['lost_acked_claims']} acked claims lost"
        )
    if verification["query_mismatches"]:
        failures.append(
            f"{verification['query_mismatches']} query mismatches"
        )
    if not state.acked:
        failures.append("soak acked zero claims")
    record["ok"] = not failures
    record["failures"] = failures
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args(argv)
    overrides = {}
    if args.clients is not None:
        overrides["clients"] = args.clients
    if args.duration is not None:
        overrides["duration"] = args.duration
    record = run_soak(args.config or "smoke", overrides)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    if not record["ok"]:
        print("FAILED: " + "; ".join(record["failures"]), file=sys.stderr)
        return 1
    return 0


def test_serving_bench_smoke(artifact_dir, benchmark):
    """Pytest entry: the scaled-down soak must hold both invariants."""
    from conftest import run_once

    record = run_once(benchmark, run_soak, "smoke")
    (artifact_dir / "BENCH_serving_smoke.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    assert record["ok"], record["failures"]


if __name__ == "__main__":
    sys.exit(main())
