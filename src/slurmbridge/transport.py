"""Remote execution and file transfer contract, plus the SSH/SCP backend.

Commands cross this boundary as argv-style token lists; backends are
responsible for any quoting their channel needs. A backend supplies four
primitives: exec, a raw copy up (_copy_up), a raw copy down (_copy_down)
and sleep. The transfers are defined once, on Endpoint, over those
primitives: every copy is staged, checked against the remote `sha256sum`
and only then moved into place. A run brings its results bundle back on
the stdout of an exec_many launch (its last poll, or one of its own)
instead of through get_file; that launch prints the bundle's sha256 digest
beside its base64 stream, and the client verifies the decoded bytes
against it (slurm.fetch_results).
"""

import hashlib
import os
import shlex
import subprocess
import time
import uuid
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from .errors import (
    ChecksumMismatch,
    ConnectionLost,
    DestinationUnwritable,
    SourceMissing,
    SpawnFailed,
    Timeout,
    TransportError,
)

DEFAULT_DEADLINE_S = 300

# The most bytes a local file is read or copied in at once: few syscalls,
# little memory. Hashing a file, or packing an archive, reads into one
# buffer of at most a piece and no larger than the largest file read
# (piece_buffer).
PIECE = 1 << 20

# exec_many runs its commands as one fixed `sh -c` program, given a fresh
# nonce as mark and then each command as its words after a header: its kind
# and its word count. It runs each command with `eval` of references to its
# words ("${1}" "${2}"...), so no word is ever read as shell text, followed by
# the line "<mark> <exit status>" on stdout and on stderr. A command (kind c)
# that fails sets the guard `ok` to 1, and so does a Quiet one (q), run as
# `q=$(...) && [ -z "$q" ]`: it exits 0 only if its argv did and printed
# nothing but newlines, and it prints what it captured. A then command (t)
# runs only while `ok` is 0, whatever the then commands before it gave, and
# one that does not run gives the status "-". A then command whose output a
# later one takes (k) runs as `o=$(...)`, prints what it captured, its stdout
# less any trailing newlines, and keeps it in o<t> and its status in r<t>, t
# its index among the then commands. One that takes it (a) has in its header
# the source's index j and the position of the word that gets "${o<j>%%;*}",
# that stdout up to its first ';', appended, and runs only if r<j> is 0. A
# newline is printed before each marker line, so output without a trailing
# newline keeps its last line apart from the marker. The program holds no
# newline, so a login shell that rejects newlines inside quotes (csh) can
# pass it on, nor a '!', which csh expands even inside quotes.
_FRAMED = (
    r'mark=$1; shift; ok=0; t=0; while [ $# -gt 0 ]; do kind=$1; shift; '
    r'if [ $kind = a ]; then j=$1; p=$2; shift 2; fi; n=$1; shift; c=; w=0; '
    r'while [ $w -lt $n ]; do w=$((w + 1)); if [ $kind = a ] && [ $w = $p ]; '
    r'then c="$c \"\${$w}\${o$j%%;*}\""; else c="$c \"\${$w}\""; fi; done; '
    r'case $kind in '
    r'c) eval "$c"; s=$?; [ $s = 0 ] || ok=1 ;; '
    r'q) q=$(eval "$c") && [ -z "$q" ]; s=$?; printf %s "$q"; [ $s = 0 ] || ok=1 ;; '
    r't) if [ $ok = 0 ]; then eval "$c"; s=$?; else s=-; fi ;; '
    r'k) if [ $ok = 0 ]; then o=$(eval "$c"); s=$?; printf %s "$o"; eval "o$t=\$o"; '
    r'else s=-; fi; eval "r$t=\$s" ;; '
    r'a) eval "s=\$r$j"; if [ $s = 0 ]; then eval "$c"; s=$?; else s=-; fi ;; '
    r'esac; printf "\n%s %s\n" "$mark" "$s"; printf "\n%s %s\n" "$mark" "$s" >&2; '
    r'shift $n; case $kind in [tka]) t=$((t + 1)) ;; esac; done'
)
_HEAD = ["sh", "-c", _FRAMED, "sh"]


@dataclass(frozen=True)
class Captured:
    """An argv token of a then command: prefix followed by what then command
    source of the same exec_many printed, up to its first ';' (the id in
    `sbatch --parsable`'s `<id>` or `<id>;<cluster>`). The command holding
    the token runs only if command source exited 0."""

    source: int
    prefix: str = ""


@dataclass(frozen=True)
class Quiet:
    """A command (not a then command) of exec_many that exits 0 only if argv
    exited 0 and printed nothing but newlines: a guard. Its stdout is
    argv's, less any trailing newlines, so a guard that fails tells what it
    found from a guard whose argv failed."""

    argv: list


@dataclass(frozen=True)
class ExecResult:
    exit_code: int
    stdout: str
    stderr: str

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
    """The argv that runs argv lists in order, each whatever the exit status
    of the ones before, and then the argv lists of then, each only if every
    one of commands exited 0: `sh -c` _FRAMED with a fresh mark and each
    command's header and words. A command may be Quiet, and a then argv may
    hold one Captured token, naming an earlier then command that holds none."""
    return _frame(uuid.uuid4().hex, commands, then)


def _sources(argv):
    return [token.source for token in argv if isinstance(token, Captured)]


def _frame(mark, commands, then):
    captured = {source for argv in then for source in _sources(argv)}
    words = [*_HEAD, mark]
    for argv in commands:
        quiet = isinstance(argv, Quiet)
        argv = argv.argv if quiet else argv
        words += ["q" if quiet else "c", str(len(argv)), *argv]
    for k, argv in enumerate(then):
        sources = _sources(argv)
        if len(sources) > 1 or any(not 0 <= source < k or _sources(then[source])
                                   for source in sources):
            raise ValueError(f"then command {k} takes no output of {sources}")
        if sources:
            at = next(n for n, token in enumerate(argv) if isinstance(token, Captured))
            words += ["a", str(sources[0]), str(at + 1), str(len(argv)),
                      *argv[:at], argv[at].prefix, *argv[at + 1:]]
        else:
            words += ["k" if k in captured else "t", str(len(argv)), *argv]
    return words


def unframe_commands(argv):
    """(mark, commands, then) of an argv made by frame_commands, or None
    when argv is not exactly one."""
    if argv[:4] != _HEAD:
        return None
    commands, then, at = [], [], 5
    try:
        while at < len(argv):
            kind, at = argv[at], at + 1
            if kind == "a":
                source, position, at = int(argv[at]), int(argv[at + 1]) - 1, at + 2
            count = int(argv[at])
            words, at = argv[at + 1:at + 1 + count], at + 1 + count
            if kind == "c":
                commands.append(words)
            elif kind == "q":
                commands.append(Quiet(words))
            elif kind in ("t", "k"):
                then.append(words)
            elif kind == "a" and 0 <= position < len(words):
                words[position] = Captured(source, words[position])
                then.append(words)
            else:
                return None
        framed = argv[4], commands, then
        # Reading is lenient; only words that frame back unchanged are a launch.
        return framed if _frame(*framed) == argv else None
    except (ValueError, IndexError):  # no mark, a header word out of place, or a misused Captured
        return None


def run_framed(commands, then, run):
    """What `sh` gives running the framed launch of commands and then, when
    run(argv) gives each command's ExecResult: one result per command, None
    for a then command that did not run. A Quiet command runs its argv."""
    results = [_quiet(run(argv.argv)) if isinstance(argv, Quiet) else run(argv)
               for argv in commands]
    guard = all(result.ok for result in results)
    captured = {source for argv in then for source in _sources(argv)}
    for k, argv in enumerate(then):
        sources = [results[len(commands) + source] for source in _sources(argv)]
        if not guard or any(source is None or not source.ok for source in sources):
            results.append(None)
            continue
        # A captured source's stdout has lost its trailing newlines already.
        result = run([token if isinstance(token, str)
                      else token.prefix + sources[0].stdout.split(";", 1)[0]
                      for token in argv])
        if k in captured:
            result = replace(result, stdout=result.stdout.rstrip("\n"))
        results.append(result)
    return results


def _quiet(result):
    """The result of a Quiet command whose argv gave result."""
    stdout = result.stdout.rstrip("\n")
    return ExecResult(1 if result.ok and stdout else result.exit_code, stdout, result.stderr)


def frame_output(mark, results):
    """(stdout, stderr) that `sh` prints running a framed launch whose
    commands gave results, None for a command that did not run."""
    ran = [("-", "", "") if r is None else (r.exit_code, r.stdout, r.stderr) for r in results]
    stdout = "".join(f"{out}\n{mark} {code}\n" for code, out, _ in ran)
    stderr = "".join(f"{err}\n{mark} {code}\n" for code, _, err in ran)
    return stdout, stderr


def _unframe_output(text, mark, count):
    """[(exit status, output)] of each framed command in text; the status
    is None for a command that did not run. A marker line is "<mark> " and
    then decimal digits or "-", between newlines; what follows the last one
    is no command's output."""
    head = f"\n{mark} "
    framed, start = [], 0
    at = text.find(head)
    while at >= 0:
        end = text.find("\n", at + len(head))
        status = text[at + len(head):end] if end >= 0 else ""
        if status != "-" and not status.isdecimal():
            at = text.find(head, at + 1)
            continue
        framed.append((None if status == "-" else int(status), text[start:at]))
        start = end + 1
        at = text.find(head, start)
    if len(framed) != count:
        raise TransportError(f"framed output holds {len(framed)} of {count} exit markers")
    return framed


def piece_buffer(size, buffer=b""):
    """buffer, when it holds a piece of a file of size bytes, else a new
    one that does: min(PIECE, size) bytes, and at least 1, so that a read
    into it gives 0 bytes only at the end of a file."""
    need = max(1, min(PIECE, size))
    return buffer if len(buffer) >= need else memoryview(bytearray(need))


def read_pieces(handle, buffer):
    """Read the binary file handle to its end into buffer, a piece_buffer,
    yielding a view of each piece read; a view holds its piece only until
    the next is read."""
    while count := handle.readinto(buffer):
        yield buffer[:count]


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as handle:
        for piece in read_pieces(handle, piece_buffer(os.fstat(handle.fileno()).st_size)):
            digest.update(piece)
    return digest.hexdigest()


class Endpoint(ABC):
    """One remote endpoint; at most one in-flight operation per handle.

    Backends implement exec and the raw copies _copy_up and _copy_down, and
    may replace sleep. put_file, get_file, exec_many and the path helpers
    (`test -e`, `mkdir -p`, `rm -rf`) run through them."""

    @abstractmethod
    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        """Run an argv token list remotely; returns ExecResult."""

    def _copy_up(self, local, remote):
        """Copy the local file to remote as is; raises DestinationUnwritable."""
        raise NotImplementedError

    def _copy_down(self, remote, local):
        """Copy the remote file to local as is; raises SourceMissing."""
        raise NotImplementedError

    def _check_sha256(self, remote, checksum):
        """Raise ChecksumMismatch, naming both digests, unless the remote
        file's `sha256sum` gives checksum, the local file's digest."""
        result = self.exec(["sha256sum", remote])
        digest = (result.stdout.split() if result.ok else [])[:1] or ["did not come back"]
        if digest != [checksum]:
            raise ChecksumMismatch(f"{remote}: remote sha256 {digest[0]}, local sha256 {checksum}")

    def put_file(self, local, remote):
        """Copy local -> remote atomically: stage it at staging_path(remote),
        check the remote digest, then `mv -T` it into place (never into a
        directory at remote), removing the staging file when the digest or
        the move fails. Returns TransferReport."""
        if not os.path.isfile(local):
            raise SourceMissing(local)
        tmp = staging_path(remote)
        self._copy_up(local, tmp)
        checksum = file_sha256(local)
        try:
            self._check_sha256(tmp, checksum)
            move = self.exec(["mv", "-T", tmp, remote])
            if not move.ok:
                raise DestinationUnwritable(move.stderr.strip())
        except (ChecksumMismatch, DestinationUnwritable):
            self.exec(["rm", "-f", tmp])
            raise
        return TransferReport(bytes=os.path.getsize(local), checksum=checksum)

    def get_file(self, remote, local):
        """Copy remote -> local atomically: stage it at staging_path(local),
        check the remote digest, then rename it into place. Returns
        TransferReport."""
        if not self.path_exists(remote):
            raise SourceMissing(remote)
        tmp = staging_path(local)
        self._copy_down(remote, tmp)
        checksum = file_sha256(tmp)
        try:
            self._check_sha256(remote, checksum)
        except ChecksumMismatch:
            os.unlink(tmp)
            raise
        os.replace(tmp, local)
        return TransferReport(bytes=os.path.getsize(local), checksum=checksum)

    def exec_many(self, commands, then=()):
        """Run argv lists in order through one exec (one launch over SSH),
        each whatever the exit status of the ones before, and then the argv
        lists of then, each only if every one of commands exited 0, whatever
        the ones before it gave. A Quiet command exits 0 only if its argv
        exited 0 and printed nothing, and gives argv's stdout less its
        trailing newlines.

        A then argv may take the output of an earlier then command through
        one Captured token (see frame_commands); it runs only if that one
        exited 0, and that one's stdout comes back less its trailing
        newlines.

        Returns one ExecResult per command and per then command; a then
        command that did not run gives None. The commands share the one deadline of that exec."""
        count = len(commands) + len(then)
        if not count:
            return []
        framed = frame_commands(commands, then)  # framed[4] is the mark
        result = self.exec(framed)
        return [
            None if code is None else ExecResult(code, stdout, stderr)
            for (code, stdout), (_, stderr) in zip(
                _unframe_output(result.stdout, framed[4], count),
                _unframe_output(result.stderr, framed[4], count))
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


def staging_path(path):
    """Where a transfer to path is staged until its digest checks out."""
    return path + ".part"


class SshEndpoint(Endpoint):
    """Backend over the system ssh/scp binaries with key-file auth: exec is
    one ssh process, each raw copy one scp process. No remote command reads
    the local terminal: every process gets stdin from /dev/null, so a remote
    prompt (unzip's "replace?") reads EOF."""

    def __init__(self, profile):
        port, key = str(profile.port), profile.key_path
        self._ssh = ["ssh", "-o", "BatchMode=yes", "-p", port, "-i", key,
                     f"{profile.user}@{profile.host}"]
        self._scp = ["scp", "-q", "-o", "BatchMode=yes", "-P", port, "-i", key]
        self._host = f"{profile.user}@{profile.host}:"

    def _spawn(self, argv, timeout=None):
        """Run one ssh or scp process; exit 255 is the link's failure, not
        the remote command's, and a process that cannot start (an argument
        over the kernel's limit, or no such program) raises SpawnFailed. An
        output byte that is not UTF-8 reads as U+FFFD."""
        try:
            proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, errors="replace", timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise Timeout(f"deadline of {timeout}s exceeded") from exc
        except OSError as exc:
            raise SpawnFailed(f"{argv[0]} could not start: {exc.strerror}") from exc
        if proc.returncode == 255:
            raise ConnectionLost(proc.stderr.strip())
        return proc

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        proc = self._spawn(self._ssh + [shlex.join(command)], timeout)
        return ExecResult(proc.returncode, proc.stdout, proc.stderr)

    def _copy_up(self, local, remote):
        copy = self._spawn(self._scp + [local, self._host + remote])
        if copy.returncode != 0:
            raise DestinationUnwritable(copy.stderr.strip())

    def _copy_down(self, remote, local):
        copy = self._spawn(self._scp + [self._host + remote, local])
        if copy.returncode != 0:
            raise SourceMissing(copy.stderr.strip())
