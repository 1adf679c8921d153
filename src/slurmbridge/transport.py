"""Remote execution and file transfer contract, plus the SSH/SCP backend.

Commands cross this boundary as argv-style token lists; backends are
responsible for any quoting their channel needs. Every transfer is
checksum-verified after copy. A run brings its results bundle back on the
stdout of an exec_many launch instead of through get_file; that launch
prints the bundle's sha256 digest beside its base64 stream, and the client
verifies the decoded bytes against it (slurm.fetch_results).
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
# fresh nonce and the guard `ok` to 0, then runs each command, followed by
# the line "<mark> <exit status>" on stdout and on stderr; a command that
# fails sets `ok` to 1. Each `then` command runs only while `ok` is 0, and
# one that does not run gives the status "-". A newline is printed before
# each marker line, so output without a trailing newline keeps its last line
# apart from the marker. The script holds no newline of its own, so a login
# shell that rejects newlines inside quotes (csh) can pass it on; nor does it
# hold a '!', which csh expands even inside quotes.
_FRAME_HEAD = re.compile(r"mark=(\w+); ok=0; ")
_MARK = "printf '\\n%s %s\\n' \"$mark\" \"$s\"; printf '\\n%s %s\\n' \"$mark\" \"$s\" >&2; "
_RAN = "; s=$?; [ $s = 0 ] || ok=1; "
_THEN_HEAD = "if [ $ok = 0 ]; then "
_THEN_TAIL = "; s=$?; else s=-; fi; "


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


def frame_commands(commands, then=()):
    """(script, mark): the `sh -c` script that runs argv lists in order,
    each whatever the exit status of the ones before, and then the argv
    lists of then, each only if every one of commands exited 0."""
    mark = uuid.uuid4().hex
    body = "".join(shlex.join(argv) + _RAN + _MARK for argv in commands)
    body += "".join(_THEN_HEAD + shlex.join(argv) + _THEN_TAIL + _MARK for argv in then)
    return f"mark={mark}; ok=0; {body}", mark


def unframe_commands(script):
    """(mark, commands, then) of a script made by frame_commands, or None
    when script is not one."""
    head = _FRAME_HEAD.match(script)
    if head is None:
        return None
    *pieces, rest = script[head.end():].split(_MARK)
    if rest:
        return None
    commands, then = [], []
    for piece in pieces:
        if piece.startswith(_THEN_HEAD) and piece.endswith(_THEN_TAIL):
            then.append(shlex.split(piece[len(_THEN_HEAD):-len(_THEN_TAIL)]))
        elif piece.endswith(_RAN) and not then:
            commands.append(shlex.split(piece[:-len(_RAN)]))
        else:
            return None
    return head.group(1), commands, then


def frame_output(mark, results):
    """(stdout, stderr) that `sh` prints running a framed script whose
    commands gave results, None for a command that did not run."""
    ran = [("-", "", "") if r is None else (r.exit_code, r.stdout, r.stderr) for r in results]
    stdout = "".join(f"{out}\n{mark} {code}\n" for code, out, _ in ran)
    stderr = "".join(f"{err}\n{mark} {code}\n" for code, _, err in ran)
    return stdout, stderr


def _unframe_output(text, mark, count):
    """[(exit status, output)] of each framed command in text; the status
    is None for a command that did not run."""
    parts = re.split(f"\n{mark} (\\d+|-)\n", text)
    if len(parts) != 2 * count + 1:
        raise TransportError(
            f"framed output holds {len(parts) // 2} of {count} exit markers")
    return [(None if parts[k + 1] == "-" else int(parts[k + 1]), parts[k])
            for k in range(0, 2 * count, 2)]


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

    def exec_many(self, commands, then=()):
        """Run argv lists in order through one exec (one launch over SSH),
        each whatever the exit status of the ones before, and then the argv
        lists of then, each only if every one of commands exited 0.

        Returns one ExecResult per command and per then command, each with
        the duration of the whole launch; a then command that did not run
        gives None. The commands share the one deadline of that exec."""
        count = len(commands) + len(then)
        if not count:
            return []
        script, mark = frame_commands(commands, then)
        result = self.exec(["sh", "-c", script])
        return [
            None if code is None else ExecResult(code, stdout, stderr, result.duration_ms)
            for (code, stdout), (_, stderr) in zip(
                _unframe_output(result.stdout, mark, count),
                _unframe_output(result.stderr, mark, count))
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
