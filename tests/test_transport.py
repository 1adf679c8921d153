import hashlib
import io
import os
import posixpath
import shutil
import subprocess
import zipfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slurmbridge import transport
from slurmbridge.config import ClusterProfile
from slurmbridge.errors import ConnectionLost, DestinationUnwritable, SourceMissing, Timeout
from slurmbridge.simslurm import SimCluster, SimEndpoint


class TestExec:
    def test_echo(self, sim_endpoint):
        result = sim_endpoint.exec(["echo", "hi"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "hi\n", "")

    def test_nonzero_exit_is_not_an_error(self, sim_endpoint):
        result = sim_endpoint.exec(["false"])
        assert result.exit_code == 1

    def test_unsupported_command(self, sim_endpoint):
        result = sim_endpoint.exec(["frobnicate"])
        assert result.exit_code == 127
        assert "command not found" in result.stderr


class TestTransfers:
    def test_empty_file(self, sim_endpoint, tmp_path):
        local = tmp_path / "empty.bin"
        local.write_bytes(b"")
        sim_endpoint.make_dirs("/remote")
        report = sim_endpoint.put_file(str(local), "/remote/empty.bin")
        assert report.bytes == 0
        assert report.checksum == hashlib.sha256(b"").hexdigest()

    def test_round_trip(self, sim_endpoint, tmp_path):
        local = tmp_path / "payload.bin"
        local.write_bytes(b"some payload")
        sim_endpoint.make_dirs("/remote")
        sim_endpoint.put_file(str(local), "/remote/payload.bin")
        back = tmp_path / "back.bin"
        sim_endpoint.get_file("/remote/payload.bin", str(back))
        assert back.read_bytes() == b"some payload"

    def test_large_random_file_checksums(self, sim_endpoint, tmp_path):
        # Oracle: independent hashing of both copies.
        data = os.urandom(10 * 1024 * 1024)
        local = tmp_path / "big.bin"
        local.write_bytes(data)
        sim_endpoint.make_dirs("/remote")
        report = sim_endpoint.put_file(str(local), "/remote/big.bin")
        assert report.bytes == 10485760
        assert report.checksum == hashlib.sha256(data).hexdigest()
        stored = sim_endpoint.cluster.fs.read("/remote/big.bin")
        assert hashlib.sha256(stored).hexdigest() == report.checksum

    def test_source_missing(self, sim_endpoint, tmp_path):
        with pytest.raises(SourceMissing):
            sim_endpoint.put_file(str(tmp_path / "nope"), "/remote/x")
        with pytest.raises(SourceMissing):
            sim_endpoint.get_file("/remote/nope", str(tmp_path / "out"))

    def test_path_ops(self, sim_endpoint):
        assert not sim_endpoint.path_exists("/a/b")
        sim_endpoint.make_dirs("/a/b")
        assert sim_endpoint.path_exists("/a/b")
        sim_endpoint.remove_tree("/a")
        assert not sim_endpoint.path_exists("/a/b")


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=1 << 20))
def test_put_get_identity_property(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("payloads")
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs("/remote")
    local = tmp / "in.bin"
    local.write_bytes(payload)
    put = endpoint.put_file(str(local), "/remote/f")
    back = tmp / "out.bin"
    get = endpoint.get_file("/remote/f", str(back))
    assert back.read_bytes() == payload
    assert put.checksum == get.checksum



# Short op sequences over a three-name alphabet, so that paths collide: a
# file where a directory is wanted, a tree removed and then tested, and so on.
# A trailing '/' asks for a directory: `test -e f/` and `rm -rf f/` miss a file f.
_PATHS = st.builds(lambda names, slash: "/".join(names) + slash,
                   st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
                   st.sampled_from(["", "/"]))
_FILE_OPS = st.one_of(
    st.tuples(st.sampled_from(["mkdir -p", "rm -rf"]), st.lists(_PATHS, min_size=1, max_size=2)),
    st.tuples(st.sampled_from(["test -e", "put"]), _PATHS.map(lambda path: [path])),
)


# zip writes a new archive of up to three paths each time, as the client's
# zips do; unzip extracts the last one made into a directory.
_ARCHIVE_OPS = st.one_of(
    st.tuples(st.sampled_from(["zip -r -D", "zip -q -r -D"]),
              st.lists(_PATHS, min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["unzip", "unzip -q"]), _PATHS.map(lambda path: [path])),
)


def _archive_entries(data):
    """name -> bytes of each entry of zip archive data, or None for no
    archive."""
    if data is None:
        return None
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _zip_warnings(output):
    """The warning lines of zip's output; -q leaves them out."""
    return [line for line in output.splitlines() if "zip warning:" in line]


def _real_tree(root):
    """(dirs, files -> bytes) below root on local disk, relative to it."""
    dirs, files = set(), {}
    for parent, subdirs, names in os.walk(root):
        rel = os.path.relpath(parent, root)
        dirs.update(os.path.normpath(os.path.join(rel, d)) for d in subdirs)
        for name in names:
            with open(os.path.join(parent, name), "rb") as handle:
                files[os.path.normpath(os.path.join(rel, name))] = handle.read()
    return dirs, files


def _sim_tree(fs, root):
    prefix = root + "/"
    return ({d[len(prefix):] for d in fs.dirs if d.startswith(prefix)},
            {f[len(prefix):]: data for f, data in fs.files.items() if f.startswith(prefix)})


@pytest.mark.skipif(
    any(shutil.which(tool) is None for tool in ("mkdir", "rm", "test", "zip", "unzip")),
    reason="coreutils mkdir/rm/test or Info-ZIP zip/unzip not installed")
@settings(max_examples=100, deadline=None)
@example([("mkdir -p", ["a/b"]), ("put", ["a/b/c"]), ("put", ["b"]),
          ("zip -r -D", ["a", "b", "c"]), ("unzip", ["c"]), ("unzip", ["c"]),
          ("unzip", ["b/a"]), ("unzip", ["a/a/a"]), ("zip -r -D", ["c/b"])])
@example([("mkdir -p", ["a/b"]), ("put", ["a/b/c"]), ("zip -q -r -D", ["a", "b"]),
          ("unzip -q", ["c"]), ("unzip -q", ["c"]), ("unzip -q", ["a/b/c"]),
          ("zip -q -r -D", ["b"])])
@given(st.lists(st.one_of(_FILE_OPS, _ARCHIVE_OPS), max_size=8))
def test_file_ops_match_real_tools(tmp_path_factory, ops):
    """mkdir -p, rm -rf, test -e, zip [-q] -r -D, unzip [-q] and put_file
    give the simulator the same exit codes, the same tree and the same
    archive entries as the installed tools give local disk. The simulator's
    tree sits at the same path as the real one, so entry names agree."""
    tmp = tmp_path_factory.mktemp("fileops")
    root = str(tmp / "tree")
    archive = tmp / "archive.zip"
    os.mkdir(root)
    endpoint = SimEndpoint(SimCluster())
    fs = endpoint.cluster.fs
    endpoint.make_dirs(root)
    for step, (op, paths) in enumerate(ops):
        paths = [posixpath.join(root, path) for path in paths]
        if op == "put":
            local = tmp / f"payload{step}"
            local.write_bytes(f"payload {step}".encode())
            try:
                endpoint.put_file(str(local), paths[0])
                sim_ok = True
            except DestinationUnwritable:
                sim_ok = False
            try:
                shutil.copyfile(local, paths[0])
                real_ok = True
            except OSError:
                real_ok = False
            assert sim_ok == real_ok, (step, op, paths)
        else:
            argv = op.split()
            if argv[0] == "unzip":
                argv += [str(archive), "-d"]
            elif argv[0] == "zip":
                fs.remove_tree(str(archive))
                archive.unlink(missing_ok=True)
                argv.append(str(archive))
            sim = endpoint.cluster.sim_exec(argv + paths)
            real = subprocess.run(argv + paths, stdin=subprocess.DEVNULL, capture_output=True)
            assert sim.exit_code == real.returncode, (step, op, paths, real.stderr)
            if argv[0] == "zip":
                # Stream by stream: Info-ZIP writes its warnings on stdout.
                assert _zip_warnings(sim.stdout) == _zip_warnings(real.stdout.decode()), \
                    (step, op, paths)
                assert _zip_warnings(sim.stderr) == _zip_warnings(real.stderr.decode()), \
                    (step, op, paths)
            real_archive = archive.read_bytes() if archive.exists() else None
            assert _archive_entries(fs.files.get(str(archive))) == _archive_entries(real_archive)
        assert _sim_tree(fs, root) == _real_tree(root), (step, op)


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sha256sum", "base64")),
                    reason="coreutils sha256sum/base64 not installed")
@pytest.mark.parametrize("size", [0, 1, 56, 57, 58, 76, 1000])
def test_digest_and_stream_match_coreutils(tmp_path, size):
    """The simulator's `sha256sum FILE` and `base64 FILE` print what the
    installed coreutils print, byte for byte, on either side of base64's
    57-byte line of 76 columns; a missing file gives exit 1 and no stdout."""
    path = str(tmp_path / "payload.bin")
    data = bytes((7 * k + 3) % 256 for k in range(size))
    with open(path, "wb") as handle:
        handle.write(data)
    cluster = SimCluster()
    cluster.fs.make_dirs(str(tmp_path))
    cluster.fs.write(path, data)
    for tool in ("sha256sum", "base64"):
        for target in (path, str(tmp_path / "missing.bin"), str(tmp_path)):
            real = subprocess.run([tool, target], capture_output=True, text=True)
            sim = cluster.sim_exec([tool, target])
            assert (sim.exit_code, sim.stdout) == (real.returncode, real.stdout), (tool, target)
            assert sim.stderr == real.stderr
        missing = cluster.sim_exec([tool, str(tmp_path / "missing.bin")])
        assert (missing.exit_code, missing.stdout) == (1, "")


def ssh_endpoint(scratch_dir="/scratch"):
    return transport.SshEndpoint(
        ClusterProfile(host="hpc", user="u", key_path="/k", scratch_dir=str(scratch_dir)))


_WORDS = st.sampled_from(["hi", "two words", "it's", "a\nb", "-e", ""])
_LISTED_OPS = st.one_of(
    _FILE_OPS.filter(lambda op: op[0] != "put"),
    st.tuples(st.sampled_from(["echo", "echo -n"]), st.lists(_WORDS, max_size=2)),
    st.tuples(st.sampled_from(["true", "false"]), st.just([])),
)


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sh", "mkdir", "rm", "test")),
                    reason="sh or coreutils mkdir/rm/test not installed")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([("echo -n", ["no newline"]), ("mkdir -p", ["a/b"]), ("false", []),
          ("test -e", ["a/b"]), ("rm -rf", ["a"]), ("echo", ["after"]), ("true", [])],
         [("echo", ["held back"]), ("mkdir -p", ["c"])])
@example([("mkdir -p", ["a"]), ("test -e", ["a/"])],
         [("echo -n", ["it's"]), ("false", []), ("rm -rf", ["a"]), ("echo", ["ran"])])
@given(st.lists(_LISTED_OPS, min_size=1, max_size=8), st.lists(_LISTED_OPS, max_size=4))
def test_exec_many_matches_real_shell(shell_router, tmp_path_factory, ops, then_ops):
    """One exec_many gives the simulator the same exit code and stdout per
    command, the same commands not run, and the same tree, as SshEndpoint
    gets from the installed sh and tools on local disk: a failing command
    does not stop the ones after it, but stops every then command, and a
    failing then command stops none."""
    real_root = str(tmp_path_factory.mktemp("shell") / "tree")
    sim_root = "/scratch/tree"
    os.mkdir(real_root)
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs(sim_root)

    def commands(root, ops):
        return [op.split() + ([f"{root}/{arg}" for arg in args]
                              if op.split()[0] in ("mkdir", "rm", "test") else args)
                for op, args in ops]

    def outcomes(results):
        return [None if r is None else (r.exit_code, r.stdout) for r in results]

    real = ssh_endpoint().exec_many(commands(real_root, ops), then=commands(real_root, then_ops))
    sim = endpoint.exec_many(commands(sim_root, ops), then=commands(sim_root, then_ops))
    assert outcomes(sim) == outcomes(real)
    assert len(real) == len(ops) + len(then_ops)
    assert _sim_tree(endpoint.cluster.fs, sim_root) == _real_tree(real_root)


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not installed")
def test_ssh_exec_many_is_one_launch(shell_router):
    """SshEndpoint.exec_many starts one ssh process, whose remote command a
    POSIX shell splits back into every command, quoting intact, with or
    without then commands behind the guard."""
    endpoint = ssh_endpoint()
    results = endpoint.exec_many([["echo", "it's", "a b"], ["false"], ["echo", "-n", "$HOME"]])
    assert [argv[0] for argv in shell_router.launches] == ["ssh"]
    assert [(r.exit_code, r.stdout) for r in results] == [
        (0, "it's a b\n"), (1, ""), (0, "$HOME")]
    passed = endpoint.exec_many([["true"]], then=[["echo", "it's"], ["false"], ["echo", "$x"]])
    held = endpoint.exec_many([["echo", "a;b"], ["false"]], then=[["echo", "never"]])
    assert [argv[0] for argv in shell_router.launches] == ["ssh"] * 3
    assert [(r.exit_code, r.stdout) for r in passed] == [
        (0, ""), (0, "it's\n"), (1, ""), (0, "$x\n")]
    assert [(r.exit_code, r.stdout) for r in held[:2]] == [(0, "a;b\n"), (1, "")]
    assert held[2] is None


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sh", "cp", "sha256sum")),
                    reason="sh or coreutils cp/sha256sum not installed")
def test_ssh_processes_never_read_the_terminal(shell_router, tmp_path):
    """Every ssh and scp process SshEndpoint starts gets stdin from
    /dev/null, so a remote prompt reads EOF instead of the user's input;
    the router fails any process started otherwise. A put and a get each
    take scp, sha256sum and mv or test -e, and give back the same bytes."""
    endpoint = ssh_endpoint(tmp_path)
    local = tmp_path / "local.bin"
    local.write_bytes(b"payload")
    endpoint.exec(["true"])
    endpoint.exec_many([["true"], ["false"]])
    endpoint.put_file(str(local), str(tmp_path / "remote.bin"))
    endpoint.get_file(str(tmp_path / "remote.bin"), str(tmp_path / "back.bin"))
    assert (tmp_path / "back.bin").read_bytes() == b"payload"
    assert sorted(os.listdir(tmp_path)) == ["back.bin", "local.bin", "remote.bin"]
    assert [argv[0] for argv in shell_router.launches] == ["ssh"] * 2 + [
        "scp", "ssh", "ssh", "ssh", "scp", "ssh"]


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not installed")
def test_ssh_link_failure_and_deadline(shell_router):
    """Exit 255 is the link's failure, whatever the command; a launch past
    its deadline raises Timeout."""
    endpoint = ssh_endpoint()
    assert endpoint.exec(["sh", "-c", "exit 254"]).exit_code == 254
    shell_router.drop = lambda argv: True
    with pytest.raises(ConnectionLost):
        endpoint.exec(["true"])
    shell_router.drop = lambda argv: False
    with pytest.raises(Timeout):
        endpoint.exec(["sleep", "5"], timeout=0.2)
