"""Remote execution and file transfer contract, plus the SSH/SCP backend.

Commands cross this boundary as argv-style token lists; backends are
responsible for any quoting their channel needs. Every transfer is
checksum-verified after copy.
"""

import hashlib
import os
import shlex
import subprocess
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import (
    ChecksumMismatch,
    ConnectionLost,
    DestinationUnwritable,
    SourceMissing,
    Timeout,
)

DEFAULT_DEADLINE_S = 300


@dataclass(frozen=True)
class ExecResult:
    exit_code: int
    stdout: str
    stderr: str
    duration_ms: int

    @property
    def ok(self):
        return self.exit_code == 0


@dataclass(frozen=True)
class TransferReport:
    bytes: int
    checksum: str  # hex sha256 of the file content


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Endpoint(ABC):
    """One remote endpoint; at most one in-flight operation per handle.

    Backends implement exec, put_file and get_file; the path helpers run
    `test -e`, `mkdir -p` and `rm -rf` through exec."""

    @abstractmethod
    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        """Run an argv token list remotely; returns ExecResult."""

    @abstractmethod
    def put_file(self, local, remote):
        """Copy local -> remote atomically; returns TransferReport."""

    @abstractmethod
    def get_file(self, remote, local):
        """Copy remote -> local atomically; returns TransferReport."""

    def path_exists(self, remote):
        return self.exec(["test", "-e", remote]).ok

    def make_dirs(self, remote):
        result = self.exec(["mkdir", "-p", remote])
        if not result.ok:
            raise DestinationUnwritable(result.stderr.strip())

    def remove_tree(self, remote):
        self.exec(["rm", "-rf", remote])

    def put_bytes(self, data, remote):
        import tempfile

        with tempfile.NamedTemporaryFile(delete=False) as handle:
            handle.write(data)
            tmp = handle.name
        try:
            return self.put_file(tmp, remote)
        finally:
            os.unlink(tmp)

    def sleep(self, seconds):
        """Wait between polls; simulated backends advance virtual time."""
        time.sleep(seconds)


class SshEndpoint(Endpoint):
    """Backend over the system ssh/scp binaries with key-file auth."""

    def __init__(self, profile):
        self.profile = profile

    def _ssh_base(self):
        return [
            "ssh",
            "-o", "BatchMode=yes",
            "-p", str(self.profile.port),
            "-i", self.profile.key_path,
            f"{self.profile.user}@{self.profile.host}",
        ]

    def _scp_base(self):
        return [
            "scp",
            "-q",
            "-o", "BatchMode=yes",
            "-P", str(self.profile.port),
            "-i", self.profile.key_path,
        ]

    def _remote(self, path):
        return f"{self.profile.user}@{self.profile.host}:{path}"

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        remote_command = " ".join(shlex.quote(token) for token in command)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                self._ssh_base() + [remote_command],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise Timeout(f"deadline of {timeout}s exceeded") from exc
        duration_ms = int((time.monotonic() - started) * 1000)
        if proc.returncode == 255:
            raise ConnectionLost(proc.stderr.strip())
        return ExecResult(proc.returncode, proc.stdout, proc.stderr, duration_ms)

    def _remote_sha256(self, remote):
        result = self.exec(["sha256sum", remote])
        if not result.ok:
            raise ChecksumMismatch(f"cannot hash remote file {remote}")
        return result.stdout.split()[0]

    def put_file(self, local, remote):
        if not os.path.isfile(local):
            raise SourceMissing(local)
        tmp = remote + ".part"
        proc = subprocess.run(
            self._scp_base() + [local, self._remote(tmp)], capture_output=True, text=True
        )
        if proc.returncode == 255:
            raise ConnectionLost(proc.stderr.strip())
        if proc.returncode != 0:
            raise DestinationUnwritable(proc.stderr.strip())
        local_sum = file_sha256(local)
        if self._remote_sha256(tmp) != local_sum:
            self.exec(["rm", "-f", tmp])
            raise ChecksumMismatch(remote)
        move = self.exec(["mv", tmp, remote])
        if not move.ok:
            raise DestinationUnwritable(move.stderr.strip())
        return TransferReport(bytes=os.path.getsize(local), checksum=local_sum)

    def get_file(self, remote, local):
        if not self.path_exists(remote):
            raise SourceMissing(remote)
        tmp = local + ".part"
        proc = subprocess.run(
            self._scp_base() + [self._remote(remote), tmp],
            capture_output=True,
            text=True,
        )
        if proc.returncode == 255:
            raise ConnectionLost(proc.stderr.strip())
        if proc.returncode != 0:
            raise SourceMissing(proc.stderr.strip())
        local_sum = file_sha256(tmp)
        if self._remote_sha256(remote) != local_sum:
            os.unlink(tmp)
            raise ChecksumMismatch(remote)
        os.replace(tmp, local)
        return TransferReport(bytes=os.path.getsize(local), checksum=local_sum)
