"""Remote execution and file transfer contract, plus the SSH/SCP backend.

Commands cross this boundary as argv-style token lists; backends are
responsible for any quoting their channel needs. Every transfer is
checksum-verified after copy.
"""

import hashlib
import os
import re
import shlex
import subprocess
import time
import uuid
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import (
    ChecksumMismatch,
    ConnectionLost,
    DestinationUnwritable,
    SourceMissing,
    Timeout,
    TransportError,
)

DEFAULT_DEADLINE_S = 300

# exec_many runs its commands as one `sh -c` script: it sets `mark` to a
# fresh nonce, then runs each command, followed by the line
# "<mark> <exit status>" on stdout and on stderr. A newline is printed
# before each marker line, so output without a trailing newline keeps its
# last line apart from the marker. The script holds no newline of its own,
# so a login shell that rejects newlines inside quotes (csh) can pass it on.
_FRAME_HEAD = "mark="
_FRAME_TAIL = (
    "; s=$?; printf '\\n%s %d\\n' \"$mark\" \"$s\"; "
    "printf '\\n%s %d\\n' \"$mark\" \"$s\" >&2; "
)


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


def frame_commands(commands):
    """(script, mark): the `sh -c` script that runs argv lists in order,
    each whatever the exit status of the ones before."""
    mark = uuid.uuid4().hex
    body = "".join(shlex.join(argv) + _FRAME_TAIL for argv in commands)
    return f"{_FRAME_HEAD}{mark}; {body}", mark


def unframe_commands(script):
    """(mark, argv lists) of a script made by frame_commands, or None when
    script is not one."""
    head, separator, body = script.partition("; ")
    pieces = body.split(_FRAME_TAIL)
    if not head.startswith(_FRAME_HEAD) or not separator or pieces[-1]:
        return None
    return head[len(_FRAME_HEAD):], [shlex.split(piece) for piece in pieces[:-1]]


def frame_output(mark, results):
    """(stdout, stderr) that `sh` prints running a framed script whose
    commands gave results."""
    stdout = "".join(f"{r.stdout}\n{mark} {r.exit_code}\n" for r in results)
    stderr = "".join(f"{r.stderr}\n{mark} {r.exit_code}\n" for r in results)
    return stdout, stderr


def _unframe_output(text, mark, count):
    """[(exit status, output)] of each framed command in text."""
    parts = re.split(f"\n{mark} (\\d+)\n", text)
    if len(parts) != 2 * count + 1:
        raise TransportError(
            f"framed output holds {len(parts) // 2} of {count} exit markers")
    return [(int(parts[k + 1]), parts[k]) for k in range(0, 2 * count, 2)]


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Endpoint(ABC):
    """One remote endpoint; at most one in-flight operation per handle.

    Backends implement exec, put_file and get_file; exec_many and the path
    helpers (`test -e`, `mkdir -p`, `rm -rf`) run through exec."""

    @abstractmethod
    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        """Run an argv token list remotely; returns ExecResult."""

    @abstractmethod
    def put_file(self, local, remote):
        """Copy local -> remote atomically; returns TransferReport."""

    @abstractmethod
    def get_file(self, remote, local):
        """Copy remote -> local atomically; returns TransferReport."""

    def exec_many(self, commands):
        """Run argv lists in order through one exec (one launch over SSH),
        each whatever the exit status of the ones before; returns one
        ExecResult per command, each with the duration of the whole launch.
        The commands share the one deadline of that exec."""
        if not commands:
            return []
        script, mark = frame_commands(commands)
        result = self.exec(["sh", "-c", script])
        return [
            ExecResult(code, stdout, stderr, result.duration_ms)
            for (code, stdout), (_, stderr) in zip(
                _unframe_output(result.stdout, mark, len(commands)),
                _unframe_output(result.stderr, mark, len(commands)))
        ]

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
    """Backend over the system ssh/scp binaries with key-file auth. No
    remote command reads the local terminal: every process gets stdin from
    /dev/null, so a remote prompt (unzip's "replace?") reads EOF."""

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
                stdin=subprocess.DEVNULL,
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
            self._scp_base() + [local, self._remote(tmp)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
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
            stdin=subprocess.DEVNULL,
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
