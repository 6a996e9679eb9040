"""Spawn and reap the serving tiers as separate ``repro`` CLI processes.

Three ``repro serve`` shard daemons, one ``repro shard serve`` router and one
``repro gateway --router`` run each in their own process with default knobs.
A process is ready when its banner line appears; every process is stopped on
every exit path (SIGTERM, then SIGKILL after a timeout), its output is kept
for failure reports, and :meth:`Cluster.stop` checks that no listener is
left behind.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

from harness import ROOT, SRC, vm_hwm_mb

BANNER_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 5.0


class ServerProcess:
    """One CLI process whose stdout is drained by a thread into :attr:`lines`."""

    def __init__(self, name: str, args: List[str], banner: str) -> None:
        self.name = name
        self.banner_re = re.compile(banner)
        self.lines: List[str] = []
        self.address: Optional[str] = None
        self._ready = threading.Event()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # A session of its own: a terminal's ctrl-c reaches only the
        # benchmark, whose clean-up then stops each server in order.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        self._pump = threading.Thread(target=self._drain, name=f"drain-{name}", daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self.address is None:
                match = self.banner_re.search(line)
                if match:
                    self.address = match.group(1)
                    self._ready.set()
        self._ready.set()  # EOF: the process died before (or after) its banner

    def wait_ready(self, timeout: float = BANNER_TIMEOUT_S) -> str:
        self._ready.wait(timeout)
        if self.address is None:
            state = "exited" if self.proc.poll() is not None else "still running"
            raise RuntimeError(f"{self.name} printed no banner within {timeout:g} s ({state})")
        return self.address

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(STOP_TIMEOUT_S)

    def output(self) -> str:
        return "".join(self.lines)


def normalize_http_address(url: str) -> str:
    """``http://HOST:PORT/`` (the gateway banner) -> ``HOST:PORT``.

    ``repro.open_http`` accepts only ``host:port``, while ``repro gateway``
    announces a URL.
    """
    address = url
    if address.startswith("http://"):
        address = address[len("http://"):]
    return address.rstrip("/")


class Cluster:
    """Shard daemons, router and gateway over per-shard store directories."""

    def __init__(self, shard_roots: Dict[str, Path], workdir: Path) -> None:
        self.shard_roots = dict(shard_roots)
        self.workdir = workdir
        self.shards: Dict[str, ServerProcess] = {}
        self.router: Optional[ServerProcess] = None
        self.gateway: Optional[ServerProcess] = None
        self.shard_map = None

    @property
    def processes(self) -> List[ServerProcess]:
        procs = list(self.shards.values())
        return procs + [p for p in (self.router, self.gateway) if p is not None]

    def start(self) -> "Cluster":
        from repro.shard import ShardMap, ShardSpec

        try:
            for name, root in self.shard_roots.items():
                self.shards[name] = ServerProcess(
                    f"shard {name}", ["serve", str(root)], r" at (\S+) \(cache ")
            specs = [ShardSpec(name, proc.wait_ready()) for name, proc in self.shards.items()]
            self.shard_map = ShardMap(specs)
            topology = self.workdir / "topology.json"
            topology.write_text(json.dumps(self.shard_map.to_dict()), "utf-8")
            self.router = ServerProcess(
                "router", ["shard", "serve", str(topology)], r" at (\S+) \(replicas ")
            router = self.router.wait_ready()
            self.gateway = ServerProcess(
                "gateway", ["gateway", "--router", router], r" at (http://\S+) \(pool ")
            self.gateway.wait_ready()
            self.gateway.address = normalize_http_address(self.gateway.address)
        except BaseException:
            self.fail()
            raise
        return self

    def fail(self) -> None:
        """Stop everything and print every server's captured output."""
        self.stop()
        print(self.outputs(), file=sys.stderr)

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over every server process."""
        return sum(p.peak_rss_mb() for p in self.processes)

    def stop(self) -> List[str]:
        """Stop gateway, router, then shards; return listeners still accepting."""
        for proc in reversed(self.processes):
            proc.stop()
        leftover = []
        for proc in self.processes:
            if proc.address is None:
                continue
            host, _, port = proc.address.rpartition(":")
            try:
                with socket.create_connection((host, int(port)), timeout=0.5):
                    leftover.append(f"{proc.name} at {proc.address}")
            except OSError:
                pass
        return leftover

    def outputs(self) -> str:
        parts = []
        for proc in self.processes:
            parts.append(f"--- {proc.name} (exit {proc.proc.poll()}) ---\n{proc.output()}")
        return "\n".join(parts)
