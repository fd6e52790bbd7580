"""Refusals and wrong answers both count as failed operations."""

import itertools
import json
import math
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro
from metrics import failed_frac
from spans import Tracer
from workloads import Context, Loop, ServeHTTP, SolvePoint


class FakeServe(BaseHTTPRequestHandler):
    """Refuses the first request, answers the second wrongly, the third
    rightly."""

    protocol_version = "HTTP/1.1"
    counter = itertools.count()

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        n = next(self.counter)
        if n == 0:
            status, reply = 429, {"ok": False, "error": "QueueFull"}
        else:
            perf = repro.solve(scenario=body.get("scenario"), **body["point"]).to_dict()
            if n == 1:
                perf["access_rate"] = math.nextafter(perf["access_rate"], math.inf)
            status = 200
            reply = {"ok": True, "perf": perf, "source": "batched",
                     "batch_width": 1, "latency_s": 0.001}
        data = json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def test_refusals_and_wrong_answers_fail(tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), FakeServe)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        workload = ServeHTTP(Context(tmp_path, dict(os.environ), seed=3))
        workload.address = server.server_address[:2]
        bodies = iter([json.dumps({"point": {"num_threads": n, "p_remote": 0.3}})
                       for n in (2, 4, 8)])
        out = Loop()
        workload._client(lambda: next(bodies), 3, None, out)
        workload.verify(out)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert out.attempted == 3
    assert out.failed == 2
    assert "HTTP 429" in out.errors[0]
    assert "differs from repro.solve" in out.errors[1]
    assert failed_frac(out.attempted, out.failed) == 2 / 3


def test_a_raising_operation_fails(tmp_path):
    class Broken(SolvePoint):
        def op(self):
            raise ValueError("boom")

    out = Broken(Context(tmp_path, {}, seed=1)).loop(0.05, Tracer())
    assert out.attempted >= 1
    assert out.failed == out.attempted
    assert out.latencies == []
    assert out.errors[0] == "ValueError: boom"
