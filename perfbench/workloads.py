"""The three benchmark workloads, driven through the library's public API.

Each workload makes every input from its seed when it is constructed (input
synthesis is never timed), builds a ready deployment in :meth:`setup` (timed
by the harness as ``setup_s``), and runs its closed loop in :meth:`run`,
checking every answer.  A request that fails or is refused is counted and
not retried.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import DataflowProgram, Param, PolystorePlusPlus, SystemConfig, col
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import Dataset
from repro.serve.client import TcpClient
from repro.stores import MLEngine, RelationalEngine, TimeseriesEngine

from hostspeed import HostSpeed


@dataclass
class Samples:
    """What one timed phase measured.  Times are host seconds."""

    #: Latency of every completed operation (the workload's unit of work).
    ops: list[float] = field(default_factory=list)
    #: The same latencies scaled to reference host speed (see hostspeed).
    scaled: list[float] = field(default_factory=list)
    #: Latencies of the parts of an operation, by name.
    parts: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    #: Host seconds the closed loop ran (the sum of operation times for a
    #: single caller, the wall time of the loop for concurrent clients).
    busy_s: float = 0.0
    #: Process CPU seconds (every thread) spent on the operations.
    cpu_s: float = 0.0
    #: Workload-level figures that are not latencies (counts, ratios,
    #: simulated seconds).
    extra: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def part(self, name: str, seconds: float) -> None:
        self.parts.setdefault(name, []).append(seconds)

    def add_ops(self, latencies: list[float], factor: float) -> None:
        """Operations of one interval that ``HostSpeed.factor`` closed."""
        self.ops.extend(latencies)
        self.scaled.extend(latency * factor for latency in latencies)

    def fail(self, message: str, *, incorrect: bool = False) -> None:
        if incorrect:
            self.incorrect += 1
        else:
            self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _op_scope(tracer: Any):
    return tracer.op() if tracer is not None else contextlib.nullcontext()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# -- serve_point -----------------------------------------------------------------------

class ServePoint:
    """Closed loop of ``Param``-bound point reads over 2 TCP connections."""

    name = "serve_point"
    ROWS = 1_000
    CLIENTS = 2
    WARMUP_READS = 4
    #: Reads per client between two host-speed kernel runs (about 0.1 s).
    SLICE_READS = 25
    #: Set-ups measured per run (``setup_s`` is their median); this one
    #: takes about 15 ms, so more samples keep the median steady.
    SETUPS = 80
    config = {"rows": ROWS, "index": "hash on pid", "clients": CLIENTS,
              "transport": "TCP", "pool_size": 2,
              "loop": f"closed, one request in flight per connection, in "
                      f"slices of {SLICE_READS} reads per connection",
              "durability": "none (in-memory)"}

    def __init__(self, workdir: Path, seed: int) -> None:
        # The process, and so the server's and clients' threads started
        # later, runs on one CPU.  Unpinned, a served read wakes threads on
        # the other vCPU, and that cost follows the neighbours' load where
        # the host-speed kernel cannot see it: four alternating pairs of
        # 10 s runs read 3.90-4.41 ms scaled unpinned, 3.46-3.66 ms pinned.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            self.config = {**self.config,
                           "cpu_affinity": sorted(os.sched_getaffinity(0))}
        rng = random.Random(seed)
        self.rows = [(pid, rng.randrange(18, 90), round(rng.random(), 4),
                      f"patient-{rng.randrange(10**6):06d}")
                     for pid in range(self.ROWS)]
        self.client_seeds = [rng.randrange(2**31) for _ in range(self.CLIENTS)]
        self.system = self.server = None
        self.clients: list[TcpClient] = []

    def setup(self) -> None:
        system = PolystorePlusPlus()
        engine = system.register_engine(RelationalEngine("servedb"))
        engine.load_table("patients", Table(make_schema(
            ("pid", DataType.INT), ("age", DataType.INT),
            ("score", DataType.FLOAT), ("name", DataType.STRING)), self.rows))
        engine.create_index("patients", "pid", kind="hash")
        program = DataflowProgram("point_read")
        program.output("row", system.dataset("servedb").table("patients")
                       .filter(col("pid") == Param("pid", default=0)))
        self.system = system
        self.server = system.serve(pool_size=2)
        self.server.register("point_read", program)
        host, port = self.server.address
        self.clients = [TcpClient(host, port) for _ in range(self.CLIENTS)]
        # Sequential reads alternate over the pool's sessions, so each one
        # prepares its plan here rather than in the timed loop.
        for index in range(self.WARMUP_READS):
            self.clients[index % self.CLIENTS].execute(
                "point_read", {"pid": index}, timeout=60)

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
        if self.system is not None:
            self.system.close()
        self.system = self.server = None

    def run(self, seconds: float, tracer: Any = None) -> Samples:
        """Slices of ``SLICE_READS`` reads per client, both clients at once,
        with the host-speed kernel timed between slices while no read is in
        flight."""
        samples = Samples()
        lock = threading.Lock()
        barrier = threading.Barrier(self.CLIENTS + 1, timeout=120)
        pending: list[float] = []
        stop = threading.Event()

        def loop(client: TcpClient, seed: int) -> None:
            rng = random.Random(seed)
            while True:
                barrier.wait()
                if stop.is_set():
                    return
                for _ in range(self.SLICE_READS):
                    pid = rng.randrange(self.ROWS)
                    start = time.perf_counter()
                    try:
                        with _op_scope(tracer):
                            response = client.execute("point_read", {"pid": pid},
                                                      timeout=60)
                    except Exception as exc:  # noqa: BLE001 - counted, not retried
                        with lock:
                            samples.attempted += 1
                            samples.fail(f"pid {pid}: {type(exc).__name__}: {exc}")
                        continue
                    elapsed = time.perf_counter() - start
                    rows = response["outputs"]["row"]["rows"]
                    with lock:
                        samples.attempted += 1
                        pending.append(elapsed)
                        if rows != [list(self.rows[pid])]:
                            samples.fail(f"pid {pid}: got {rows!r}", incorrect=True)
                barrier.wait()

        threads = [threading.Thread(target=loop, args=(client, seed))
                   for client, seed in zip(self.clients, self.client_seeds)]
        for thread in threads:
            thread.start()
        speed = HostSpeed()
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                start, cpu = time.perf_counter(), time.process_time()
                barrier.wait()
                barrier.wait()
                samples.busy_s += time.perf_counter() - start
                samples.cpu_s += time.process_time() - cpu
                samples.add_ops(pending, speed.factor())
                pending.clear()
            stop.set()
            barrier.wait()
        except BaseException:
            barrier.abort()  # releases the clients
            raise
        finally:
            for thread in threads:
                thread.join()
        return samples


# -- analytic_refresh ------------------------------------------------------------------

class AnalyticRefresh:
    """One caller re-running a sharded filter/aggregate/join/train program."""

    name = "analytic_refresh"
    ORDERS = 100_000
    CUSTOMERS = 2_000
    POINTS = 30
    SHARDS = 4
    PARAMS = 4
    #: Set-ups per run: a 0.4 s set-up is scaled from kernel runs at its
    #: edges only, so single set-ups scatter by up to 30% and the median
    #: needs many.
    SETUPS = 20
    #: One session worker, so stages and shard subtasks run one after
    #: another.  Against the default four, eight alternating pairs of 15 s
    #: runs on two shared vCPUs had the same median (650 ms scaled) but a
    #: run-to-run spread of 0.13 instead of 0.05: under the GIL the extra
    #: workers bought no speed, only noise.
    SESSION_WORKERS = 1
    config = {"orders": ORDERS, "shards": f"{SHARDS} (hash on order_id)",
              "series": CUSTOMERS, "points_per_series": POINTS, "clients": 1,
              "session_workers": SESSION_WORKERS,
              "loop": "closed, prepared.run(refresh=True) back to back",
              "mode": "polystore++", "durability": "none (in-memory)"}

    def __init__(self, workdir: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.orders = [(order_id, rng.randrange(self.CUSTOMERS),
                        round(rng.uniform(0.0, 100.0), 2),
                        int(rng.random() < 0.1))
                       for order_id in range(self.ORDERS)]
        self.series = {customer: [(float(day), round(rng.uniform(0.0, 10.0), 3))
                                  for day in range(self.POINTS)]
                       for customer in range(self.CUSTOMERS)}
        self.params = [round(rng.uniform(24.5, 25.5), 2)
                       for _ in range(self.PARAMS)]
        self.expected = {value: self._reference(value) for value in self.params}
        self.system = self.prepared = None

    def _reference(self, min_amount: float) -> dict[int, tuple[float, int, int]]:
        groups: dict[int, list] = {}
        for _, customer, amount, returned in self.orders:
            if amount > min_amount:
                group = groups.setdefault(customer, [0.0, 0, 0])
                group[0] += amount
                group[1] += 1
                group[2] = max(group[2], returned)
        return {customer: tuple(group) for customer, group in groups.items()}

    def setup(self) -> None:
        timeseries = TimeseriesEngine("telemetry")
        system = build_accelerated_polystore(
            [timeseries, MLEngine("ml")],
            config=SystemConfig(session_workers=self.SESSION_WORKERS))
        orders = system.register_sharded_engine("ordersdb", RelationalEngine,
                                                self.SHARDS)
        orders.load_table("orders", Table(make_schema(
            ("order_id", DataType.INT), ("customer_id", DataType.INT),
            ("amount", DataType.FLOAT), ("returned", DataType.INT)), self.orders),
            shard_key="order_id")
        for customer, points in self.series.items():
            timeseries.append_many(f"sessions/{customer}", points)
        spend = (system.dataset("ordersdb").table("orders")
                 .filter(col("amount") > Param("min_amount", default=0.0))
                 .aggregate(["customer_id"], total_spend=("sum", "amount"),
                            n_orders=("count", None),
                            any_return=("max", "returned"))
                 .named("spend"))
        sessions = system.dataset("telemetry").timeseries("sessions/")
        model = (spend.join(sessions, left_key="customer_id", right_key="pid")
                 .train(label_column="any_return", model_name="return_model",
                        epochs=3, engine="ml"))
        program = DataflowProgram("analytic_refresh")
        program.output("spend", spend)
        program.output("model", model)
        self.system = system
        self.prepared = system.session(name="analytic").prepare(
            program, mode="polystore++")

    def teardown(self) -> None:
        if self.system is not None:
            self.system.close()
        self.system = self.prepared = None

    def _check(self, result: Any, min_amount: float) -> str | None:
        expected = self.expected[min_amount]
        rows = result.output("spend").to_dicts()
        got = {row["customer_id"]: row for row in rows}
        if len(got) != len(rows) or got.keys() != expected.keys():
            return f"min_amount {min_amount}: groups differ"
        for customer, (total, count, any_return) in expected.items():
            row = got[customer]
            if (row["n_orders"] != count or row["any_return"] != any_return
                    or not _close(row["total_spend"], total)):
                return f"min_amount {min_amount}: customer {customer} got {row}"
        model = result.output("model")
        if model.get("rows") != len(expected):
            return f"model trained on {model.get('rows')} rows, want {len(expected)}"
        return None

    def run(self, seconds: float, tracer: Any = None) -> Samples:
        samples = Samples()
        simulated: list[float] = []
        flops: list[float] = []
        speed = HostSpeed()
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            min_amount = self.params[index % len(self.params)]
            index += 1
            samples.attempted += 1
            start, cpu = time.perf_counter(), time.process_time()
            try:
                with _op_scope(tracer):
                    result = self.prepared.run(refresh=True, min_amount=min_amount)
            except Exception as exc:  # noqa: BLE001 - counted, not retried
                samples.fail(f"run {index}: {type(exc).__name__}: {exc}")
                speed.restart()
                continue
            elapsed = time.perf_counter() - start
            samples.cpu_s += time.process_time() - cpu
            samples.add_ops([elapsed], speed.factor())
            samples.busy_s += elapsed
            records = [r for r in result.report.records if not r.cached]
            # Simulated device and network seconds: a series of their own,
            # never added to the host time above.
            simulated.append(sum(r.simulated_time_s for r in records
                                 if r.offloaded or r.kind == "migrate"))
            flops.append(sum(r.details.get("flops", 0) for r in records
                             if r.offloaded))
            problem = self._check(result, min_amount)
            if problem is not None:
                samples.fail(problem, incorrect=True)
        samples.parts["program_simulated"] = simulated
        if flops:
            samples.extra["gemm_flops_first_run"] = flops[0]
            samples.extra["gemm_flops_last_run"] = flops[-1]
        return samples


# -- ingest_view -----------------------------------------------------------------------

class IngestView:
    """Durable writes, each followed by a view refresh and a dashboard read."""

    name = "ingest_view"
    SEED_ROWS = 20_000
    CYCLES = 1_600
    INSERT_ROWS = 50
    RANGE_ROWS = 20
    DEVICES = 50
    CHECK_EVERY = 200
    #: Cycles between two host-speed kernel runs (about 15 ms).  Five
    #: probe runs of one pass scaled at 1, 4 and 16 cycles per slice spread
    #: 0.036, 0.042 and 0.061 (IQR over median) from run to run.
    SLICE_CYCLES = 4
    SYNC = "always"
    SETUPS = 20
    config = {"seed_rows": SEED_ROWS, "cycles_per_pass": CYCLES,
              "write_mix": "96% 50-row insert, 2% 20-row range update_rows, "
                           "2% 20-row range delete_rows",
              "clients": 1,
              "loop": "closed: write, view.refresh(), prepared dashboard read; "
                      "one pass per timed phase",
              "durability_sync": SYNC,
              "checkpoint_every_wal_records":
                  SystemConfig().durability_snapshot_every,
              "view": "manual policy: filter -> group-by sum/count/max"}

    def __init__(self, workdir: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.base = [(eid, rng.randrange(self.DEVICES),
                      round(rng.uniform(0.0, 100.0), 3))
                     for eid in range(self.SEED_ROWS)]
        self.plan: list[tuple] = []
        next_eid = self.SEED_ROWS
        for _ in range(self.CYCLES):
            draw = rng.random()
            if draw < 0.96:
                rows = [(next_eid + i, rng.randrange(self.DEVICES),
                         round(rng.uniform(0.0, 100.0), 3))
                        for i in range(self.INSERT_ROWS)]
                next_eid += self.INSERT_ROWS
                self.plan.append(("insert", rows))
            else:
                low = rng.randrange(next_eid - self.RANGE_ROWS)
                if draw < 0.98:
                    value = round(rng.uniform(0.0, 100.0), 3)
                    self.plan.append(("update", low, value))
                else:
                    self.plan.append(("delete", low))
        self.system = self.engine = self.view = self.dashboard = None
        self.data_dir: Path | None = None
        self._dirs = 0

    def _config(self) -> SystemConfig:
        return SystemConfig(data_dir=str(self.data_dir),
                            durability_sync=self.SYNC)

    def setup(self) -> None:
        self._dirs += 1
        self.data_dir = self.workdir / f"data-{self._dirs}"
        system = PolystorePlusPlus(self._config())
        engine = system.register_engine(RelationalEngine("events"))
        engine.load_table("readings", Table(make_schema(
            ("eid", DataType.INT), ("device", DataType.INT),
            ("reading", DataType.FLOAT)), self.base))
        expression = self._expression(system)
        self.view = system.create_view("by_device", expression, policy="manual")
        dashboard = DataflowProgram("dashboard")
        dashboard.output("by_device", Dataset(expression.node))
        self.dashboard = system.session(name="dashboard").prepare(dashboard)
        self.system, self.engine = system, engine

    @staticmethod
    def _expression(system: PolystorePlusPlus) -> Dataset:
        return (system.dataset("events").table("readings")
                .filter(col("reading") > 10.0)
                .aggregate(["device"], total=("sum", "reading"),
                           n=("count", None), peak=("max", "reading")))

    def teardown(self) -> None:
        if self.system is not None:
            self.system.close()
        self.system = self.engine = self.view = self.dashboard = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    @staticmethod
    def _reference(state: dict[int, tuple]) -> dict[int, tuple[float, int, float]]:
        groups: dict[int, list] = {}
        for _, device, reading in state.values():
            if reading > 10.0:
                group = groups.setdefault(device, [0.0, 0, reading])
                group[0] += reading
                group[1] += 1
                group[2] = max(group[2], reading)
        return {device: tuple(group) for device, group in groups.items()}

    @classmethod
    def _view_problem(cls, table: Table, state: dict[int, tuple]) -> str | None:
        expected = cls._reference(state)
        rows = table.to_dicts()
        got = {row["device"]: row for row in rows}
        if len(got) != len(rows) or got.keys() != expected.keys():
            return "view groups differ from the reference"
        for device, (total, count, peak) in expected.items():
            row = got[device]
            if (row["n"] != count or not _close(row["total"], total)
                    or not _close(row["peak"], peak)):
                return f"device {device}: view {row}, reference {(total, count, peak)}"
        return None

    def _write(self, step: tuple) -> float:
        """Apply one planned write; returns its host seconds."""
        kind = step[0]
        start = time.perf_counter()
        if kind == "insert":
            self.engine.insert("readings", step[1])
        else:
            low = step[1]
            predicate = ((col("eid") >= low)
                         & (col("eid") < low + self.RANGE_ROWS))
            if kind == "update":
                self.engine.update_rows("readings", predicate,
                                        {"reading": step[2]})
            else:
                self.engine.delete_rows("readings", predicate)
        return time.perf_counter() - start

    def _acknowledge(self, step: tuple, state: dict[int, tuple]) -> int:
        """Apply an acknowledged write to the reference; returns user bytes."""
        kind = step[0]
        if kind == "insert":
            written = step[1]
            for row in written:
                state[row[0]] = row
        else:
            touched = [eid for eid in range(step[1], step[1] + self.RANGE_ROWS)
                       if eid in state]
            if kind == "update":
                for eid in touched:
                    state[eid] = (eid, state[eid][1], step[2])
                written = [state[eid] for eid in touched]
            else:
                written = [state.pop(eid) for eid in touched]
        return len(json.dumps(written))

    def run(self, seconds: float, tracer: Any = None) -> Samples:
        """One pass over the whole write plan.

        The pass is a fixed count of cycles whatever ``seconds`` says: the
        table grows with every insert, so a time box would hand a faster
        program a larger table.
        """
        samples = Samples()
        state = {row[0]: row for row in self.base}
        user_bytes = 0
        first_snapshot = self._snapshot_id()
        speed = HostSpeed()
        pending: list[float] = []
        for index, step in enumerate(self.plan):
            if len(pending) == self.SLICE_CYCLES:
                samples.add_ops(pending, speed.factor())
                pending = []
            samples.attempted += 1
            cpu = time.process_time()
            failure = None
            with _op_scope(tracer):
                try:
                    write_s = self._write(step)
                except Exception as exc:  # noqa: BLE001 - counted, not retried
                    samples.fail(f"cycle {index} write: {type(exc).__name__}: {exc}")
                    continue
                try:
                    start = time.perf_counter()
                    self.view.refresh()
                    refreshed = time.perf_counter()
                    result = self.dashboard.run()
                    read_s = time.perf_counter() - refreshed
                except Exception as exc:  # noqa: BLE001 - counted, not retried
                    failure = f"cycle {index} refresh/read: {type(exc).__name__}: {exc}"
            # The write returned, so the engine holds it: the reference
            # follows it even when the refresh or the read failed.
            user_bytes += self._acknowledge(step, state)
            if failure is not None:
                samples.fail(failure)
                continue
            samples.cpu_s += time.process_time() - cpu
            cycle = write_s + (refreshed - start) + read_s
            pending.append(cycle)
            samples.busy_s += cycle
            samples.part("insert" if step[0] == "insert" else "retract", write_s)
            samples.part("refresh", refreshed - start)
            samples.part("view_read", read_s)
            if any(r.kind != "view_read" for r in result.report.records):
                samples.extra["reads_not_from_view"] = (
                    samples.extra.get("reads_not_from_view", 0) + 1)
            if (index + 1) % self.CHECK_EVERY == 0 or index + 1 == len(self.plan):
                problem = self._view_problem(result.output("by_device"), state)
                if problem is not None:
                    samples.fail(f"cycle {index}: {problem}", incorrect=True)
        samples.add_ops(pending, speed.factor())
        checkpoints = self._snapshot_id() - first_snapshot
        if tracer is not None:
            tracer.phase = "recovery"
        self.system.close()
        self.system = None
        disk_bytes = sum(path.stat().st_size
                         for path in self.data_dir.rglob("*") if path.is_file())
        table_bytes = len(json.dumps(sorted(state.values())))
        samples.attempted += 1
        start = time.perf_counter()
        reborn = PolystorePlusPlus(self._config())
        try:
            engine = reborn.register_engine(RelationalEngine("events"))
            view = reborn.view("by_device")
            recovery_s = time.perf_counter() - start
            recovered = sorted(tuple(row) for row in
                               engine.snapshot_scan("readings")[0].rows)
            report = reborn.durability.recovery_report()["events"]
            if recovered != sorted(state.values()):
                problem = "recovered table differs from acknowledged writes"
            else:
                problem = self._view_problem(view.read()[0], state)
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            samples.fail(f"recovery: {type(exc).__name__}: {exc}")
            return samples
        finally:
            reborn.close()
            if tracer is not None:
                tracer.phase = "timed"
        if problem is not None:
            samples.fail(f"after reopen: {problem}", incorrect=True)
        samples.extra["recovery_s"] = recovery_s
        samples.extra["disk_bytes_per_user_byte"] = disk_bytes / table_bytes
        samples.extra["checkpoints"] = checkpoints
        samples.extra["user_bytes"] = user_bytes
        samples.extra["replayed_records"] = (report["replayed_batches"]
                                             + report["replayed_meta"])
        return samples

    def _snapshot_id(self) -> int:
        checkpoints = self.system.durability.describe()["checkpoints"]
        return int(checkpoints["events"]["snapshot_id"])


WORKLOADS = {cls.name: cls for cls in (ServePoint, AnalyticRefresh, IngestView)}
