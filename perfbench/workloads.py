"""The four workloads: seeded inputs, a closed loop, and answer checks.

Each workload drives one path a user drives, through public entry points
only, and times it from outside:

* ``solve_point``   -- one caller, each call a fresh ``repro.solve``;
* ``sweep_lattice`` -- ``repro.sweep`` of the Figure-4 lattice plus a hier
  lattice into a fresh result store, a cold pass then a warm pass;
* ``serve_http``    -- ``repro-mms serve`` in a child process, two
  closed-loop HTTP clients on keep-alive connections;
* ``fabric_sweep``  -- ``repro.sweep(fabric=<fresh dir>, workers=2)``.

The program sees only the generated inputs; the seed never reaches it.
Every answer is checked against another path (see each ``verify``), and a
wrong answer counts as a failed operation.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from metrics import tail
from spans import Tracer

#: Figure-4 thread counts (the lattice the paper's surfaces use)
FIG4_THREADS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
#: longest a single HTTP request or child start may take before it counts
#: as a failure
TIMEOUT_S = 30.0
#: a fresh interpreter doing the kinds of work a launch does, none of it
#: the program's: import numpy, then compile and run module code (a
#: thousand small classes, the stand-in for the program's own modules)
BARE_CODE = (
    "import numpy\n"
    "source = ''.join(\n"
    "    f'class C{i}:\\n    def f(self, x):\\n        return x + {i}\\n'\n"
    "    for i in range(1000)\n"
    ")\n"
    "exec(compile(source, 'bare', 'exec'))\n"
    "print('ready', flush=True)\n"
)
#: seconds BARE_CODE takes to get ready on the reference host (the 2-vCPU
#: VM of the README's baseline); setup_s is given at that host's speed
BARE_START_S = 0.2


@dataclass
class Context:
    """Where a run lives: every file it writes is under ``tmp``."""

    tmp: Path
    env: dict[str, str]  # the children's environment (no REPRO_* variables)
    seed: int


@dataclass
class Loop:
    """What one closed loop measured."""

    latencies: list[float] = field(default_factory=list)  # s, per good op
    wall: float = 0.0  # s the loop ran (its longest client, for several)
    checking: float = 0.0  # s of the wall spent in the benchmark's checks
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def busy(self) -> float:
        """Seconds of the loop that belong to the program: the wall
        without the benchmark's own answer checks."""
        return self.wall - self.checking

    def extend(self, other: Loop) -> None:
        """Append a later loop (the next stretch of the same run)."""
        self.latencies += other.latencies
        self.wall += other.wall
        self.checking += other.checking
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]


def canonical(records: list[dict[str, Any]]) -> str:
    """Sweep records as canonical JSON (floats by repr, so equal strings
    mean bitwise-equal answers)."""
    return json.dumps(
        [{**r, "perf": r["perf"].to_dict()} for r in records], sort_keys=True
    )


def perf_json(perf: Any) -> str:
    return json.dumps(perf.to_dict(), sort_keys=True)


def _jitter(rng: random.Random, values: list[float], width: float) -> list[float]:
    return [v + rng.uniform(-width, width) for v in values]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def time_to_ready(code: str, ctx: Context) -> float:
    """Run *code* in a fresh interpreter; seconds until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=ctx.env,
        cwd=ctx.tmp,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        status = proc.wait(timeout=TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"setup probe failed (exit {status}): {line!r}")
    return elapsed


def setup_sample(workload: Workload) -> tuple[float, float]:
    """One launch of *workload* and the mean of the bare starts
    (``BARE_CODE``) just before and after it, both in seconds.

    The host's speed drifts by up to 1.5x for minutes at a time (see the
    README), and a launch slows with it; ``launch / bare * BARE_START_S``
    cancels the drift, and the program cannot change a bare start.
    """
    before = time_to_ready(BARE_CODE, workload.ctx)
    launch = workload.launch()
    after = time_to_ready(BARE_CODE, workload.ctx)
    return launch, (before + after) / 2


class Workload:
    """One workload; subclasses give the inputs, the timed operation and
    the checks of its answers."""

    name = ""
    #: Python run by a fresh interpreter; prints ``ready`` once the first
    #: operation could start (imports and lazy kernel selection done)
    setup_code = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)

    def launch(self) -> float:
        """Start a fresh interpreter, return seconds until it is ready."""
        return time_to_ready(self.setup_code, self.ctx)

    def prepare(self) -> None:
        """Build the inputs and warm up; nothing here is timed."""

    def op(self) -> Any:
        """One timed operation; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, result: Any) -> str | None:
        """Untimed check of one operation: ``None`` or what went wrong."""
        return None

    def step(self, out: Loop, tracer: Tracer) -> None:
        """Run, time and check one operation into *out*."""
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = tracer.call("op", self.op, (), {})
        except Exception as exc:  # noqa: BLE001 - any error fails the op
            out.fail(f"{type(exc).__name__}: {exc}")
            return
        t1 = time.perf_counter()
        try:
            problem = self.check(result)
        except Exception as exc:  # noqa: BLE001
            problem = f"{type(exc).__name__}: {exc}"
        out.checking += time.perf_counter() - t1
        if problem is None:
            out.latencies.append(t1 - t0)
        else:
            out.fail(problem)

    def loop(self, seconds: float, tracer: Tracer) -> Loop:
        """Closed loop: the next operation starts when the last ended."""
        out = Loop()
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            self.step(out, tracer)
        out.wall = time.perf_counter() - start
        return out

    def paired_loop(self, seconds: float, tracer: Tracer) -> tuple[Loop, Loop]:
        """Each input twice in a row, untraced then traced: the two loops
        differ only by the tracing, not by the inputs or the host's speed
        at the time."""
        plain, traced = Loop(), Loop()
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            state = self.rng.getstate()
            self.step(plain, tracer)
            self.rng.setstate(state)
            tracer.enabled = True
            try:
                self.step(traced, tracer)
            finally:
                tracer.enabled = False
        return plain, traced

    def verify(self, out: Loop) -> None:
        """Checks too slow for the loop; failures are added to *out*."""

    def path_metrics(self, out: Loop) -> dict[str, tuple[float, int, float | None]]:
        """Path metrics as ``name -> (value, n, percentile or None)``."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics measured outside the spans."""
        return {}

    def close(self) -> None:
        pass


def _latency_metrics(
    prefix: str, latencies: list[float]
) -> dict[str, tuple[float, int, float | None]]:
    ms = [t * 1e3 for t in latencies]
    pct, value, n = tail(ms)
    return {
        f"{prefix}_p50_ms": (statistics.median(ms), n, 50.0),
        f"{prefix}_p99_ms": (value if value is not None else max(ms), n, pct),
    }


class SolvePoint(Workload):
    """About 80% symmetric torus points, 10% torus hotspot (the multiclass
    AMVA) and 10% hier, each a fresh ``repro.solve``."""

    name = "solve_point"
    setup_code = (
        "import repro\n"
        "from repro.queueing.kernels import resolve_kernel\n"
        "resolve_kernel()\n"
        "repro.solve(num_threads=8, p_remote=0.2)\n"
        "print('ready', flush=True)\n"
    )

    def point(self) -> dict[str, Any]:
        r = self.rng.random()
        point: dict[str, Any] = {
            "num_threads": self.rng.randint(1, 20),
            "p_remote": self.rng.uniform(0.05, 0.8),
        }
        if r < 0.1:
            point["scenario"] = "hier"
        elif r < 0.2:
            point["pattern"] = "hotspot"
        return point

    def prepare(self) -> None:
        import repro

        warm = random.Random(-1 - self.ctx.seed)
        for scenario in (None, "hier"):
            for _ in range(10):
                repro.solve(
                    scenario=scenario,
                    num_threads=warm.randint(1, 20),
                    p_remote=warm.uniform(0.05, 0.8),
                )
        repro.solve(pattern="hotspot")

    def op(self) -> Any:
        import repro

        point = self.point()
        return point, repro.solve(**point)

    def check(self, result: Any) -> str | None:
        point, perf = result
        u_p = perf.summary()["U_p"]
        if not perf.converged or not 0.0 < u_p <= 1.0:
            return f"{point}: converged={perf.converged} U_p={u_p}"
        return None

    def path_metrics(self, out: Loop) -> dict[str, tuple[float, int, float | None]]:
        n = len(out.latencies)
        return {
            **_latency_metrics("solve", out.latencies),
            "solves_per_s": (n / out.busy, n, None),
        }


class SweepLattice(Workload):
    """The Figure-4 lattice (11 n_t x 16 jittered p_remote = 176 torus
    points) plus a 32-point hier lattice, swept cold into a fresh store,
    then warm from it."""

    name = "sweep_lattice"
    setup_code = (
        "import repro\n"
        "from repro.queueing.kernels import resolve_kernel\n"
        "from repro.runner import ResultStore, SweepRunner\n"
        "resolve_kernel()\n"
        "repro.sweep({'num_threads': [8]})\n"
        "print('ready', flush=True)\n"
    )

    def prepare(self) -> None:
        self.torus_axes = {
            "num_threads": list(FIG4_THREADS),
            "p_remote": _jitter(self.rng, _linspace(0.05, 0.8, 16), 0.02),
        }
        self.hier_axes = {
            "num_threads": [2, 4, 8, 16],
            "p_remote": _jitter(self.rng, [0.1, 0.2, 0.4, 0.6], 0.05),
            "p_intra": [0.5, 0.9],
        }
        self.cycles = 0
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.first: tuple[list, list] | None = None
        self.bytes_written: list[int] = []
        self.check(self.op())  # warm-up cycle
        self.cold.clear()
        self.warm.clear()
        self.bytes_written.clear()
        self.first = None

    def _sweep(self, runner: Any) -> tuple[list, list]:
        import repro

        return (
            repro.sweep(self.torus_axes, runner=runner),
            repro.sweep(self.hier_axes, runner=runner, scenario="hier"),
        )

    def op(self) -> Any:
        from repro.runner import ResultStore, SweepRunner

        self.cycles += 1
        store_dir = self.ctx.tmp / f"store-{self.cycles}"
        t0 = time.perf_counter()
        store = ResultStore(store_dir)
        try:
            cold = self._sweep(SweepRunner(store=store))
            t1 = time.perf_counter()
            warm = self._sweep(SweepRunner(store=store))
            t2 = time.perf_counter()
        finally:
            store.close()
        self.cold.append(t1 - t0)
        self.warm.append(t2 - t1)
        return store_dir, cold, warm

    def check(self, result: Any) -> str | None:
        store_dir, cold, warm = result
        self.bytes_written.append(dir_bytes(store_dir))
        shutil.rmtree(store_dir)
        if self.first is None:
            self.first = cold
        if canonical(cold[0] + cold[1]) != canonical(warm[0] + warm[1]):
            return "warm pass differs from the cold pass"
        return None

    def verify(self, out: Loop) -> None:
        """The first cold pass against per-point ``repro.solve``."""
        import repro

        if self.first is None:
            return
        torus, hier = self.first
        for rec in torus:
            ref = repro.solve(num_threads=rec["num_threads"], p_remote=rec["p_remote"])
            if perf_json(ref) != perf_json(rec["perf"]):
                out.fail(f"torus record {rec['num_threads']}/{rec['p_remote']} differs")
        for rec in hier:
            point = {k: v for k, v in rec.items() if k != "perf"}
            if perf_json(repro.solve(scenario="hier", **point)) != perf_json(rec["perf"]):
                out.fail(f"hier record {point} differs")

    def path_metrics(self, out: Loop) -> dict[str, tuple[float, int, float | None]]:
        n = len(self.cold)
        return {
            "sweep_cold_s": (statistics.median(self.cold), n, 50.0),
            "sweep_warm_s": (statistics.median(self.warm), n, 50.0),
        }

    def layer_extras(self) -> dict[str, float]:
        return {"store.bytes_written": statistics.mean(self.bytes_written)}


class FabricSweep(Workload):
    """A seed-jittered 512-point torus lattice (32 n_t x 16 p_remote)
    swept by ``repro.sweep(fabric=<fresh dir>, workers=2)``."""

    name = "fabric_sweep"
    setup_code = (
        "import repro\n"
        "import repro.fabric\n"
        "from repro.queueing.kernels import resolve_kernel\n"
        "resolve_kernel()\n"
        "print('ready', flush=True)\n"
    )

    def prepare(self) -> None:
        import repro

        self.axes = {
            "num_threads": list(range(1, 33)),
            "p_remote": _jitter(self.rng, _linspace(0.05, 0.8, 16), 0.02),
        }
        self.reference = canonical(repro.sweep(self.axes))
        self.sweeps = 0
        self.bytes_written: list[int] = []
        self.check(self.op())  # warm-up sweep
        self.bytes_written.clear()

    def op(self) -> Any:
        import repro

        self.sweeps += 1
        fabric_dir = self.ctx.tmp / f"fabric-{self.sweeps}"
        return fabric_dir, repro.sweep(self.axes, fabric=str(fabric_dir), workers=2)

    def check(self, result: Any) -> str | None:
        fabric_dir, records = result
        self.bytes_written.append(dir_bytes(fabric_dir / "store"))
        shutil.rmtree(fabric_dir)
        if canonical(records) != self.reference:
            return "fabric records differ from a single-host sweep"
        return None

    def path_metrics(self, out: Loop) -> dict[str, tuple[float, int, float | None]]:
        n = len(out.latencies)
        return {"fabric_sweep_s": (statistics.median(out.latencies), n, 50.0)}

    def layer_extras(self) -> dict[str, float]:
        return {"store.bytes_written": statistics.mean(self.bytes_written)}


class ServeHTTP(Workload):
    """``repro-mms serve`` with its default configuration; two closed-loop
    clients, each on one keep-alive connection.  About 70% of bodies are
    new torus points, 20% repeat a point the client already asked (memcache
    hits) and 10% are hier points."""

    name = "serve_http"
    clients = 2
    _LISTENING = re.compile(r"\[serve\] listening on http://([^:]+):(\d+)")

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.server: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.responses: list[tuple[str, dict, float]] = []  # body, reply, client s
        self._lock = threading.Lock()

    def _start(self) -> tuple[subprocess.Popen, tuple[str, int]]:
        """Start a server and wait until /healthz answers 200."""
        t0 = time.perf_counter()
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            env=self.ctx.env,
            cwd=self.ctx.tmp,
            text=True,
        )
        match = self._LISTENING.search(server.stdout.readline())
        if match is None:
            raise RuntimeError("serve did not report its address")
        address = (match.group(1), int(match.group(2)))
        while time.perf_counter() - t0 < TIMEOUT_S:
            conn = http.client.HTTPConnection(*address, timeout=TIMEOUT_S)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()  # closing with unread bytes would reset the server
                if resp.status == 200:
                    return server, address
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("serve never became healthy")

    @staticmethod
    def _stop(server: subprocess.Popen) -> None:
        """Stop a server (SIGTERM drains it) and check it exited cleanly."""
        server.send_signal(signal.SIGTERM)
        try:
            server.stdout.read()
            code = server.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            code = server.wait()
        finally:
            server.stdout.close()
        if code != 0:
            raise RuntimeError(f"serve exited with {code} after SIGTERM")

    def launch(self) -> float:
        """Seconds from starting a fresh server until /healthz answers; the
        probe server is stopped again, the measured one is left alone."""
        t0 = time.perf_counter()
        server, _ = self._start()
        elapsed = time.perf_counter() - t0
        self._stop(server)
        return elapsed

    def paired_loop(self, seconds: float, tracer: Tracer) -> tuple[Loop, Loop]:
        """The layers run in the server process, out of the tracer's reach:
        the traced loop is a plain loop and nothing runs untraced."""
        return Loop(), self.loop(seconds, tracer)

    def _bodies(self, rng: random.Random) -> Callable[[], str]:
        asked: list[str] = []

        def body() -> str:
            r = rng.random()
            if r < 0.2 and asked:
                return rng.choice(asked)
            point = {
                "num_threads": rng.randint(1, 20),
                "p_remote": rng.uniform(0.05, 0.8),
            }
            if r < 0.3:
                return json.dumps({"scenario": "hier", "point": point})
            asked.append(json.dumps({"point": point}))
            return asked[-1]

        return body

    def prepare(self) -> None:
        self.server, self.address = self._start()
        next_body = self._bodies(random.Random(-1 - self.ctx.seed))
        warm = Loop()
        self._client(next_body, 10, None, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up requests failed: {warm.errors}")
        self.responses.clear()
        self.streams = [
            self._bodies(random.Random(self.ctx.seed * 1000 + i))
            for i in range(self.clients)
        ]

    def _client(
        self,
        next_body: Callable[[], str],
        count: int | None,
        deadline: float | None,
        out: Loop,
    ) -> None:
        """Send requests one after another until *count* or *deadline*."""
        conn = http.client.HTTPConnection(*self.address, timeout=TIMEOUT_S)
        start = time.perf_counter()
        sent = 0
        try:
            while (count is None or sent < count) and (
                deadline is None or time.perf_counter() < deadline
            ):
                body = next_body()
                sent += 1
                t0 = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        "/solve",
                        body=body.encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    data = resp.read()
                    t1 = time.perf_counter()
                    reply = json.loads(data) if resp.status == 200 else None
                    problem = None if reply else f"HTTP {resp.status}: {data[:200]!r}"
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    t1 = time.perf_counter()
                    problem = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(*self.address, timeout=TIMEOUT_S)
                with self._lock:
                    out.attempted += 1
                    if problem is not None:
                        out.fail(problem)
                        continue
                    out.latencies.append(t1 - t0)
                    self.responses.append((body, reply, t1 - t0))
        finally:
            conn.close()
            with self._lock:
                out.wall = max(out.wall, time.perf_counter() - start)

    def loop(self, seconds: float, tracer: Tracer) -> Loop:
        out = Loop()
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client, args=(stream, None, deadline, out))
            for stream in self.streams
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return out

    def verify(self, out: Loop) -> None:
        """Each answer against an in-process ``repro.solve`` of its body."""
        import repro

        expected: dict[str, str] = {}
        for body, reply, _ in self.responses:
            if body not in expected:
                request = json.loads(body)
                perf = repro.solve(scenario=request.get("scenario"), **request["point"])
                expected[body] = perf_json(perf)
            if json.dumps(reply["perf"], sort_keys=True) != expected[body]:
                out.fail(f"answer to {body} differs from repro.solve")

    def path_metrics(self, out: Loop) -> dict[str, tuple[float, int, float | None]]:
        n = len(out.latencies)
        return {
            "http_rps": (n / out.busy, n, None),
            **_latency_metrics("http", out.latencies),
        }

    def layer_extras(self) -> dict[str, float]:
        replies = [reply for _, reply, _ in self.responses]
        n = len(replies)
        return {
            "serve.in_service_ms": 1e3 * sum(r["latency_s"] for r in replies) / n,
            "serve.batch_width_mean": sum(r["batch_width"] for r in replies) / n,
            "serve.memcache_hit_frac": sum(r["source"] == "memory" for r in replies) / n,
            "serve.coalesced_frac": sum(r["source"] == "coalesced" for r in replies) / n,
            "http.overhead_ms": 1e3
            * sum(t - r["latency_s"] for _, r, t in self.responses)
            / n,
        }

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            self._stop(server)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SolvePoint, SweepLattice, ServeHTTP, FabricSweep)
}


def stop_children(timeout: float = 10.0) -> None:
    """Terminate and reap any child process still running (a fabric worker
    left behind by a failed sweep); the benchmark leaves nothing behind."""
    me = os.getpid()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            try:
                os.kill(int(stat.parent.name), signal.SIGTERM)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)
