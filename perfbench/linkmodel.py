"""Counting endpoint that charges each call the ssh/scp launches the SSH
backend would spawn for it.

There is no sshd or real Slurm to measure against, so remote time is
modelled, not measured: every launch costs LAUNCH_S and payload bytes move
at BANDWIDTH_BPS. Launches are summed serially, matching a client that
serialises every remote call under one lock.
"""

import threading
import time

from slurmbridge.transport import DEFAULT_DEADLINE_S, Endpoint

LAUNCH_S = 0.2
BANDWIDTH_BPS = 1e8

# Processes SshEndpoint starts per call: put is scp + sha256sum + mv, get is
# test + scp + sha256sum. Pinned to the code by test_perfbench.py.
LAUNCHES = {
    "exec": 1,
    "path_exists": 1,
    "make_dirs": 1,
    "remove_tree": 1,
    "put_file": 3,
    "get_file": 3,
    "sleep": 0,
}


class CountingEndpoint(Endpoint):
    """Delegates to an inner endpoint, counting calls, launches and payload
    bytes, and timing the calls. put_bytes is charged as a put_file."""

    def __init__(self, inner):
        self.inner = inner
        self.counts = dict.fromkeys(LAUNCHES, 0)
        self.bytes_up = 0
        self.bytes_down = 0
        self.busy_s = 0.0  # real time inside remote calls
        self.sleep_s = 0.0  # real time inside sleep (simulator time advance)
        self.cluster_wait_s = 0.0  # seconds the client asked to sleep
        self.failed = 0
        self._lock = threading.Lock()

    def _call(self, kind, func, *args):
        started = time.perf_counter()
        try:
            return func(*args)
        except Exception:
            with self._lock:
                self.failed += 1
            raise
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.counts[kind] += 1
                if kind == "sleep":
                    self.sleep_s += elapsed
                else:
                    self.busy_s += elapsed

    def _moved(self, up=0, down=0):
        with self._lock:
            self.bytes_up += up
            self.bytes_down += down

    @property
    def ops(self):
        return sum(n for kind, n in self.counts.items() if kind != "sleep")

    @property
    def launches(self):
        return sum(LAUNCHES[kind] * n for kind, n in self.counts.items())

    @property
    def modelled_s(self):
        return self.launches * LAUNCH_S + (self.bytes_up + self.bytes_down) / BANDWIDTH_BPS

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        return self._call("exec", self.inner.exec, command, timeout)

    def put_file(self, local, remote):
        report = self._call("put_file", self.inner.put_file, local, remote)
        self._moved(up=report.bytes)
        return report

    def put_bytes(self, data, remote):
        report = self._call("put_file", self.inner.put_bytes, data, remote)
        self._moved(up=report.bytes)
        return report

    def get_file(self, remote, local):
        report = self._call("get_file", self.inner.get_file, remote, local)
        self._moved(down=report.bytes)
        return report

    def path_exists(self, remote):
        return self._call("path_exists", self.inner.path_exists, remote)

    def make_dirs(self, remote):
        return self._call("make_dirs", self.inner.make_dirs, remote)

    def remove_tree(self, remote):
        return self._call("remove_tree", self.inner.remove_tree, remote)

    def sleep(self, seconds):
        self._call("sleep", self.inner.sleep, seconds)
        with self._lock:
            self.cluster_wait_s += seconds
