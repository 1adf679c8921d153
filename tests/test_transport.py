import hashlib
import os
import posixpath
import shutil
import subprocess

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slurmbridge import transport
from slurmbridge.config import ClusterProfile
from slurmbridge.errors import DestinationUnwritable, SourceMissing
from slurmbridge.simslurm import SimCluster, SimEndpoint
from slurmbridge.transport import DEFAULT_DEADLINE_S, Endpoint, ExecResult


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


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("mkdir", "rm", "test")),
                    reason="coreutils mkdir/rm/test not installed")
@settings(max_examples=100, deadline=None)
@given(st.lists(_FILE_OPS, max_size=8))
def test_file_ops_match_real_tools(tmp_path_factory, ops):
    """mkdir -p, rm -rf, test -e and put_file give the simulator the same
    exit codes and the same tree as the installed tools give local disk."""
    tmp = tmp_path_factory.mktemp("fileops")
    real_root, sim_root = str(tmp / "tree"), "/scratch/tree"
    os.mkdir(real_root)
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs(sim_root)
    for step, (op, paths) in enumerate(ops):
        if op == "put":
            local = tmp / f"payload{step}"
            local.write_bytes(f"payload {step}".encode())
            try:
                endpoint.put_file(str(local), posixpath.join(sim_root, paths[0]))
                sim_ok = True
            except DestinationUnwritable:
                sim_ok = False
            try:
                shutil.copyfile(local, os.path.join(real_root, paths[0]))
                real_ok = True
            except OSError:
                real_ok = False
            assert sim_ok == real_ok, (step, op, paths)
        else:
            argv = op.split()
            sim = endpoint.cluster.sim_exec(
                argv + [posixpath.join(sim_root, path) for path in paths])
            real = subprocess.run(argv + [os.path.join(real_root, path) for path in paths],
                                  capture_output=True)
            assert sim.exit_code == real.returncode, (step, op, paths, real.stderr)
        assert _sim_tree(endpoint.cluster.fs, sim_root) == _real_tree(real_root), (step, op)


class LocalShell(Endpoint):
    """Runs each exec as a local process, so exec_many goes through the
    installed /bin/sh."""

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
        return ExecResult(proc.returncode, proc.stdout, proc.stderr, 0)

    def put_file(self, local, remote):
        raise NotImplementedError

    def get_file(self, remote, local):
        raise NotImplementedError


_WORDS = st.sampled_from(["hi", "two words", "it's", "a\nb", "-e", ""])
_LISTED_OPS = st.one_of(
    _FILE_OPS.filter(lambda op: op[0] != "put"),
    st.tuples(st.sampled_from(["echo", "echo -n"]), st.lists(_WORDS, max_size=2)),
    st.tuples(st.sampled_from(["true", "false"]), st.just([])),
)


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sh", "mkdir", "rm", "test")),
                    reason="sh or coreutils mkdir/rm/test not installed")
@settings(max_examples=100, deadline=None)
@example([("echo -n", ["no newline"]), ("mkdir -p", ["a/b"]), ("false", []),
          ("test -e", ["a/b"]), ("rm -rf", ["a"]), ("echo", ["after"]), ("true", [])])
@given(st.lists(_LISTED_OPS, min_size=1, max_size=8))
def test_exec_many_matches_real_shell(tmp_path_factory, ops):
    """One exec_many gives the simulator the same exit code and stdout per
    command, and the same tree, as the installed sh and tools give local
    disk; a failing command does not stop the ones after it."""
    real_root = str(tmp_path_factory.mktemp("shell") / "tree")
    sim_root = "/scratch/tree"
    os.mkdir(real_root)
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs(sim_root)

    def commands(root):
        return [op.split() + ([f"{root}/{arg}" for arg in args]
                              if op.split()[0] in ("mkdir", "rm", "test") else args)
                for op, args in ops]

    real = LocalShell().exec_many(commands(real_root))
    sim = endpoint.exec_many(commands(sim_root))
    assert [(r.exit_code, r.stdout) for r in sim] == [(r.exit_code, r.stdout) for r in real]
    assert _sim_tree(endpoint.cluster.fs, sim_root) == _real_tree(real_root)


def test_ssh_exec_many_is_one_launch(monkeypatch):
    """SshEndpoint.exec_many starts one ssh process, whose remote command a
    POSIX shell splits back into every command, quoting intact."""
    launches = []
    run = subprocess.run

    def fake_ssh(argv, **kwargs):
        launches.append(argv)
        # The remote login shell runs the last argument as a command line.
        return run(["sh", "-c", argv[-1]], capture_output=True, text=True)

    monkeypatch.setattr(transport.subprocess, "run", fake_ssh)
    endpoint = transport.SshEndpoint(
        ClusterProfile(host="hpc", user="u", key_path="/k", scratch_dir="/scratch"))
    results = endpoint.exec_many([["echo", "it's", "a b"], ["false"], ["echo", "-n", "$HOME"]])
    assert len(launches) == 1 and launches[0][0] == "ssh"
    assert [(r.exit_code, r.stdout) for r in results] == [
        (0, "it's a b\n"), (1, ""), (0, "$HOME")]
