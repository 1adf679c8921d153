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

import functools
import hashlib
import os
import re
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
    Timeout,
    TransportError,
)

DEFAULT_DEADLINE_S = 300

# The bytes a local file is read or copied in: few syscalls, little memory.
PIECE = 1 << 20

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
# A then command whose output a later one takes (through a Captured token)
# runs as `c<k>=$(...)`, k its index among the then commands, prints what it
# captured, which is its stdout less any trailing newlines, and keeps its
# status in r<k>. A then command holding a Captured token runs only if
# command k exited 0, and the token expands to "${c<k>%%;*}": that stdout up
# to its first ';'.
_CAPTURE_HEAD = "if [ $ok = 0 ]; then c{k}=$("
_CAPTURE_TAIL = "); s=$?; printf %s \"$c{k}\"; else s=-; fi; r{k}=$s; "
_AFTER_HEAD = "if [ $r{k} = 0 ]; then "
_CAPTURED = "\"${{c{k}%%;*}}\""
_AFTER_PIECE = re.compile(r"if \[ \$r(\d+) = 0 \]; then (.*)" + re.escape(_THEN_TAIL) + r"\Z", re.S)
_CAPTURED_WORD = re.compile(r"(.*)\$\{c(\d+)%%;\*\}\Z", re.S)
# A Quiet command runs as `q=$(...) && [ -z "$q" ]`: sh keeps its stdout in
# q, and the command exits 0 only if it did and printed nothing but newlines.
_QUIET_HEAD = "q=$("
_QUIET_TAIL = ') && [ -z "$q" ]'


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
    """A command (not a then command) of exec_many that keeps argv's stdout
    and exits 0 only if argv exited 0 and printed nothing: a guard."""

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
    """(script, mark): the `sh -c` script that runs argv lists in order,
    each whatever the exit status of the ones before, and then the argv
    lists of then, each only if every one of commands exited 0. A command
    may be Quiet, and a then argv may hold one Captured token, naming an
    earlier then command that holds none."""
    mark = uuid.uuid4().hex
    return _render(mark, commands, then), mark


def _sources(argv):
    return [token.source for token in argv if isinstance(token, Captured)]


def _word(token):
    """token as the script spells it: a string quoted, a Captured token as
    its prefix, quoted, and then its expansion."""
    if isinstance(token, str):
        return shlex.quote(token)
    return (shlex.quote(token.prefix) if token.prefix else "") + _CAPTURED.format(k=token.source)


def _render(mark, commands, then):
    captured = {source for argv in then for source in _sources(argv)}
    body = "".join((_QUIET_HEAD + shlex.join(argv.argv) + _QUIET_TAIL if isinstance(argv, Quiet)
                    else shlex.join(argv)) + _RAN + _MARK for argv in commands)
    for k, argv in enumerate(then):
        sources = _sources(argv)
        if len(sources) > 1 or any(not 0 <= source < k or _sources(then[source])
                                   for source in sources):
            raise ValueError(f"then command {k} takes no output of {sources}")
        words = " ".join(map(_word, argv))
        if k in captured:
            body += _CAPTURE_HEAD.format(k=k) + words + _CAPTURE_TAIL.format(k=k)
        else:
            body += (_AFTER_HEAD.format(k=sources[0]) if sources else _THEN_HEAD) \
                + words + _THEN_TAIL
        body += _MARK
    return f"mark={mark}; ok=0; {body}"


@functools.lru_cache(maxsize=32)
def _split(text):
    """shlex.split(text) as a tuple, cached: a poll sends the same commands
    round after round, and shlex reads a character at a time."""
    return tuple(shlex.split(text))


def unframe_commands(script):
    """(mark, commands, then) of a script made by frame_commands, or None
    when script is not exactly one."""
    head = _FRAME_HEAD.match(script)
    if head is None:
        return None
    *pieces, rest = script[head.end():].split(_MARK)
    if rest:
        return None
    commands, then = [], []
    try:
        for piece in pieces:
            capture = _CAPTURE_HEAD.format(k=len(then)), _CAPTURE_TAIL.format(k=len(then))
            after = _AFTER_PIECE.match(piece)
            if piece.startswith(capture[0]) and piece.endswith(capture[1]):
                then.append(list(_split(piece[len(capture[0]):-len(capture[1])])))
            elif after:
                then.append([_captured(word, int(after.group(1)))
                             for word in _split(after.group(2))])
            elif piece.startswith(_THEN_HEAD) and piece.endswith(_THEN_TAIL):
                then.append(list(_split(piece[len(_THEN_HEAD):-len(_THEN_TAIL)])))
            elif piece.endswith(_RAN) and not then:
                command = piece[:-len(_RAN)]
                if command.startswith(_QUIET_HEAD) and command.endswith(_QUIET_TAIL):
                    command = command[len(_QUIET_HEAD):-len(_QUIET_TAIL)]
                    commands.append(Quiet(list(_split(command))))
                else:
                    commands.append(list(_split(command)))
            else:
                return None
        framed = head.group(1), commands, then
        # Parsing is lenient; only a script that renders back unchanged is one.
        return framed if _render(*framed) == script else None
    except ValueError:  # unbalanced quotes, or a Captured token out of place
        return None


def _captured(word, source):
    """word as parsed from a then command that takes command source's
    output: the Captured token when it ends in that expansion."""
    match = _CAPTURED_WORD.match(word)
    return Captured(source, match.group(1)) if match and int(match.group(2)) == source else word


def run_framed(commands, then, run):
    """What `sh` gives running the framed script of commands and then, when
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
    code = 1 if result.ok and result.stdout.rstrip("\n") else result.exit_code
    return ExecResult(code, "", result.stderr)


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
        for chunk in iter(lambda: handle.read(PIECE), b""):
            digest.update(chunk)
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

    def _remote_sha256(self, remote):
        """The remote file's hex sha256 digest, or None when it cannot be hashed."""
        result = self.exec(["sha256sum", remote])
        words = result.stdout.split() if result.ok else []
        return words[0] if words else None

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
            if self._remote_sha256(tmp) != checksum:
                raise ChecksumMismatch(remote)
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
        if self._remote_sha256(remote) != checksum:
            os.unlink(tmp)
            raise ChecksumMismatch(remote)
        os.replace(tmp, local)
        return TransferReport(bytes=os.path.getsize(local), checksum=checksum)

    def exec_many(self, commands, then=()):
        """Run argv lists in order through one exec (one launch over SSH),
        each whatever the exit status of the ones before, and then the argv
        lists of then, each only if every one of commands exited 0. A Quiet
        command exits 0 only if its argv exited 0 and printed nothing.

        A then argv may take the output of an earlier then command through
        one Captured token (see frame_commands); it runs only if that one
        exited 0, and that one's stdout comes back less its trailing
        newlines.

        Returns one ExecResult per command and per then command; a then
        command that did not run gives None. The commands share the one deadline of that exec."""
        count = len(commands) + len(then)
        if not count:
            return []
        script, mark = frame_commands(commands, then)
        result = self.exec(["sh", "-c", script])
        return [
            None if code is None else ExecResult(code, stdout, stderr)
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
        the remote command's. An output byte that is not UTF-8 reads as U+FFFD."""
        try:
            proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, errors="replace", timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise Timeout(f"deadline of {timeout}s exceeded") from exc
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
