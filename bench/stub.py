"""Loopback chat-completions endpoint that stands in for the LLM.

One server thread on 127.0.0.1 answers POST <url>/chat/completions. The reply
is a pure function of the prompt: it reads the query and the subgroup named
in fairqr's default prompt and appends that subgroup's first lexicon keyword
after the `REFINED_QUERY:` marker. Every prompt and reply is recorded, with
the time its request arrived. Before each reply the stub runs the
calibration loop once (see calib.py) and records how long it took: the
client is waiting then, so these runs give the machine's speed while a CLI
command runs, and the benchmark takes their time out of every timing.
"""
from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import perf_counter

from calib import calibrate

_QUERY = re.compile(r"retrieved documents of query: (.*?) are from diverse")
_SUBGROUP = re.compile(r"it's the subgroup: (.*?)\. Show me")


def parse_prompt(prompt: str) -> tuple[str, str] | None:
    """(query, subgroup) named in a prompt, or None if either is missing."""
    q, s = _QUERY.search(prompt), _SUBGROUP.search(prompt)
    return (q.group(1), s.group(1)) if q and s else None


def stub_reply(prompt: str, lexicon: dict[str, list[str]]) -> str:
    parsed = parse_prompt(prompt)
    if parsed is None or not lexicon.get(parsed[1]):
        return "I cannot tell which query to refine."
    query, subgroup = parsed
    return (f"Documents from {subgroup} are under-represented.\n"
            f"REFINED_QUERY: {query} {lexicon[subgroup][0]}")


class ChatStub:
    """Context manager running the stub server in one thread."""

    def __init__(self, lexicon: dict[str, list[str]]):
        self.lexicon = lexicon
        self.pairs: list[tuple[str, str]] = []
        self.arrivals: list[float] = []  # perf_counter() of each pair's request
        self.calibrations: list[float] = []  # seconds, one run per request
        # Time spent answering, up to the last write and without the
        # calibration runs. After a calibration run the client, woken by
        # the reply, may take this thread's vCPU in the middle of the write.
        self.busy_s = 0.0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                start = perf_counter()
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                prompt = body["messages"][0]["content"]
                reply = stub_reply(prompt, stub.lexicon)
                stub.pairs.append((prompt, reply))
                stub.arrivals.append(start)
                took = calibrate()
                stub.calibrations.append(took)
                data = json.dumps(
                    {"choices": [{"message": {"role": "assistant",
                                              "content": reply}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                stub.busy_s += perf_counter() - start - took
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05})

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        return False
