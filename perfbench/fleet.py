"""The system under test, in its own process.

Run as a script, this file serves the partition service on a free
localhost port: the event-loop front over ``--shards`` local pipe
shards (``0`` = one in-process service) with the default
``ServiceConfig``.  It prints one JSON line ``{"port", "pids"}`` once
the front listens, then serves until its stdin closes, and shuts the
front and every shard down before it exits.

Imported, :class:`Fleet` starts and stops that process from the
benchmark and reads the peak RSS of the front and its shards.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: how long the front may take to listen, and the fleet to shut down
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Fleet:
    """Handle on one served-fleet process (see the module docstring)."""

    def __init__(self, shards: int, tmpdir: str):
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmpdir)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "fleet.py"), str(shards)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, text=True,
        )
        readable, _, _ = select.select([self.proc.stdout], [], [],
                                       START_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.stop()
            raise RuntimeError(f"fleet with {shards} shards failed to start")
        ready = json.loads(line)
        self.address = ("127.0.0.1", int(ready["port"]))
        self.url = f"http://127.0.0.1:{ready['port']}"
        self.pids = [self.proc.pid] + [int(p) for p in ready["pids"]]

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the front and shard processes."""
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def stop(self) -> None:
        """Close the front (it shuts its shards down) and wait until the
        front and every shard have exited; kill what does not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in getattr(self, "pids", [])[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)


def _serve(shards: int) -> None:
    import multiprocessing

    sys.path.insert(0, SRC)
    from repro.service import serve

    server = serve("127.0.0.1", 0, background=True, shards=shards)
    try:
        pids = [p.pid for p in multiprocessing.active_children()]
        print(json.dumps({"port": server.server_address[1], "pids": pids}),
              flush=True)
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        server.shutdown()
        server.service.close()
        server.server_close()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
