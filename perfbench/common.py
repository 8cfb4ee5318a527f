"""Shared plumbing for the workloads: paths, processes, HTTP, statistics.

The system under test always runs from the checkout's own ``src/``
tree, in processes this module starts and stops.  Scratch state
(cache dirs, state dirs, prepared inputs) lives under
``.perfbench-tmp/`` at the checkout root and is removed at exit,
except ``.perfbench-tmp/prepared/``, a content-addressed store of
prepared inputs that later runs may reuse.
"""
from __future__ import annotations

import http.client
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
HERE = Path(__file__).resolve().parent

_counter = itertools.count()


def require_program() -> None:
    """Fail loudly when the checkout does not hold the program."""
    if not (SRC / "repro" / "api.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sut_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def scratch(tag: str) -> Path:
    path = TMP / f"{tag}-{os.getpid()}-{next(_counter)}"
    path.mkdir(parents=True)
    return path


def clean_scratch() -> None:
    prefix = f"-{os.getpid()}-"
    if TMP.is_dir():
        for path in TMP.iterdir():
            if prefix in path.name:
                shutil.rmtree(path, ignore_errors=True)


# -- statistics -----------------------------------------------------------

def pct(values, p: float) -> float:
    """The ``p``-th percentile (inclusive linear interpolation)."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        return data[0]
    if p == 50:
        return statistics.median(data)
    rank = (len(data) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- processes ------------------------------------------------------------

def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _proc_stat(pid: str) -> tuple[int, int] | None:
    """(ppid, pgrp) of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[1]), int(fields[2])


def tree_hwm_mb(pid: int) -> float:
    """Summed peak RSS of ``pid`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(entry)
            if stat is not None:
                children.setdefault(stat[0], []).append(int(entry))
    total, todo = 0.0, [pid]
    while todo:
        current = todo.pop()
        try:
            total += vm_hwm_mb(current)
        except OSError:
            continue
        todo.extend(children.get(current, ()))
    return total


def _group_alive(pgid: int) -> bool:
    return any(
        entry.isdigit() and (_proc_stat(entry) or (0, 0))[1] == pgid
        for entry in os.listdir("/proc")
    )


def stop_group(proc: subprocess.Popen) -> None:
    """Stop a process started with ``start_new_session`` and all it forked.

    SIGINT first (the server's clean shutdown path), SIGKILL for
    whatever is left of its process group, then wait until the group
    is empty.
    """
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for stream in (proc.stdout, proc.stdin):
        if stream is not None:
            stream.close()
    deadline = time.monotonic() + 10
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.02)


# -- the server -----------------------------------------------------------

class ServeProcess:
    """One ``mbs-repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, state_dir: Path | None = None):
        argv = [sys.executable, "-m", "repro.experiments.runner", "serve",
                "--port", "0", "--cache-dir", str(cache_dir)]
        if state_dir is not None:
            argv += ["--state-dir", str(state_dir)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=str(cache_dir.parent), env=sut_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            stop_group(self.proc)
            raise

    def _read_port(self) -> int:
        marker = "listening on http://"
        for line in self.proc.stdout:
            if marker in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError("serve exited before listening")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            client = Client(self.port)
            try:
                if client.call("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            finally:
                client.close()
            if time.monotonic() > deadline:
                raise RuntimeError("serve never became healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        stop_group(self.proc)


class InProcessServer:
    """The serve front end on a background event loop in this process.

    The traced runs use it with ``workers=0`` engines, so pricing runs
    in this process where the span wrappers can see it.
    """

    def __init__(self, engine, jobs=None):
        import asyncio
        import threading

        from repro.serve.server import Server

        self._asyncio = asyncio
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.server = Server(engine, port=0, jobs=jobs)
        self._run(self.server.start())
        self.port = self.server.port

    def _run(self, coro):
        return self._asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout=60)

    def stop(self) -> None:
        self._run(self.server.aclose())
        self._run(self.loop.shutdown_default_executor())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)

    def call(self, method: str, path: str,
             body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def json(self, method: str, path: str, payload=None) -> dict:
        body = None if payload is None else json.dumps(payload).encode()
        status, data = self.call(method, path, body)
        if status != 200:
            raise RuntimeError(
                f"{method} {path}: HTTP {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()
