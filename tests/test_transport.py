import gc
import hashlib
import io
import itertools
import os
import posixpath
import re
import shlex
import shutil
import subprocess
import tracemalloc
import warnings
import zipfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slurmbridge import transport
from slurmbridge.config import ClusterProfile
from slurmbridge.errors import (
    ChecksumMismatch,
    ConnectionLost,
    DestinationUnwritable,
    SourceMissing,
    SpawnFailed,
    Timeout,
    TransportError,
)
from slurmbridge.simslurm import SimCluster, SimEndpoint
from tests.conftest import fs_snapshot, traced_peak


class TestExec:
    def test_client_command_output(self, sim_endpoint):
        sim_endpoint.make_dirs("/remote")
        sim_endpoint.cluster.fs.write("/remote/f", b"hi\n")
        result = sim_endpoint.exec(["base64", "/remote/f"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "aGkK\n", "")

    def test_nonzero_exit_is_not_an_error(self, sim_endpoint):
        result = sim_endpoint.exec(["test", "-e", "/remote/missing"])
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

    def test_hashing_holds_one_piece(self, tmp_path):
        # An 8 MiB file is read into one buffer of a piece: the peak stays
        # under 1.5 MiB, where a new piece per read, kept beside the last
        # until the next is read, takes two.
        data = os.urandom(8 << 20)
        local = tmp_path / "big.bin"
        local.write_bytes(data)
        digest, peak = traced_peak(lambda: transport.file_sha256(str(local)))
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak <= 3 << 19, peak

    @pytest.mark.parametrize("size", [0, 1, transport.PIECE - 1, transport.PIECE,
                                      transport.PIECE + 1, 3 * transport.PIECE])
    def test_hash_at_each_side_of_a_piece(self, tmp_path, size):
        data = os.urandom(size)
        local = tmp_path / "payload.bin"
        local.write_bytes(data)
        assert transport.file_sha256(str(local)) == hashlib.sha256(data).hexdigest()

    def test_source_missing(self, sim_endpoint, tmp_path):
        with pytest.raises(SourceMissing):
            sim_endpoint.put_file(str(tmp_path / "nope"), "/remote/x")
        with pytest.raises(SourceMissing):
            sim_endpoint.get_file("/remote/nope", str(tmp_path / "out"))

    @pytest.mark.parametrize("slash", ["", "/"])
    def test_put_onto_directory_is_refused(self, sim_endpoint, tmp_path, slash):
        local = tmp_path / "payload.bin"
        local.write_bytes(b"payload")
        sim_endpoint.make_dirs("/remote/target")
        sim_endpoint.cluster.fs.write("/remote/target/kept.bin", b"kept")
        before = fs_snapshot(sim_endpoint.cluster.fs)
        with pytest.raises(DestinationUnwritable):
            sim_endpoint.put_file(str(local), "/remote/target" + slash)
        assert fs_snapshot(sim_endpoint.cluster.fs) == before

    def test_unhashable_copy_leaves_no_staging_file(self, tmp_path):
        class NoDigest(SimEndpoint):
            def exec(self, command, timeout=transport.DEFAULT_DEADLINE_S):
                if command[0] == "sha256sum":
                    return transport.ExecResult(1, "", "sha256sum: refused\n")
                return super().exec(command, timeout)

        endpoint = NoDigest(SimCluster())
        endpoint.make_dirs("/remote")
        endpoint.cluster.fs.write("/remote/f", b"remote")
        (tmp_path / "up").mkdir()
        local = tmp_path / "up" / "g"
        local.write_bytes(b"local")
        with pytest.raises(ChecksumMismatch):
            endpoint.get_file("/remote/f", str(tmp_path / "f"))
        with pytest.raises(ChecksumMismatch):
            endpoint.put_file(str(local), "/remote/g")
        assert sorted(os.listdir(tmp_path)) == ["up"]
        assert sorted(endpoint.cluster.fs.files) == ["/remote/f"]

    def test_a_digest_mismatch_names_both_digests(self, tmp_path):
        class WrongDigest(SimEndpoint):
            def exec(self, command, timeout=transport.DEFAULT_DEADLINE_S):
                if command[0] == "sha256sum":
                    return transport.ExecResult(0, "0" * 64 + "  " + command[1] + "\n", "")
                return super().exec(command, timeout)

        endpoint = WrongDigest(SimCluster())
        endpoint.make_dirs("/remote")
        endpoint.cluster.fs.write("/remote/f", b"remote")
        local = tmp_path / "g"
        local.write_bytes(b"local")
        with pytest.raises(ChecksumMismatch) as got:
            endpoint.get_file("/remote/f", str(tmp_path / "f"))
        assert str(got.value) == ("/remote/f: remote sha256 " + "0" * 64
                                  + ", local sha256 " + hashlib.sha256(b"remote").hexdigest())
        with pytest.raises(ChecksumMismatch) as got:
            endpoint.put_file(str(local), "/remote/g")
        assert str(got.value) == ("/remote/g.part: remote sha256 " + "0" * 64
                                  + ", local sha256 " + hashlib.sha256(b"local").hexdigest())

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
# `rm -f` refuses a directory and keeps its tree; `rm -rf` removes it.
_PATHS = st.builds(lambda names, slash: "/".join(names) + slash,
                   st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
                   st.sampled_from(["", "/"]))
_FILE_OPS = st.one_of(
    st.tuples(st.sampled_from(["mkdir -p", "rm -f", "rm -rf"]),
              st.lists(_PATHS, min_size=1, max_size=2)),
    st.tuples(st.sampled_from(["test -e", "put"]), _PATHS.map(lambda path: [path])),
    st.tuples(st.just("mv -T"), st.lists(_PATHS, min_size=2, max_size=2)),
)


# Entry names as another tool may write them: absolute, with '.' and '..'
# components, naming a directory, or with nothing left once mapped. Only a
# clean relative name is in the client's grammar; unzip refuses the rest.
_ENTRY_NAMES = st.one_of(
    st.builds(lambda lead, parts, tail: lead + "/".join(parts) + tail,
              st.sampled_from(["", "/", "//"]),
              st.lists(st.sampled_from(["a", "b", ".", ".."]), min_size=1, max_size=3),
              st.sampled_from(["", "/"])),
    st.sampled_from(["/", "//", "./"]))


# zip writes a new archive of up to three paths each time, as the client's
# zips do, and pack one of up to three entries named as given; unzip
# extracts the last one made into a directory. Without -q, zip and unzip
# are refused.
_ARCHIVE_OPS = st.one_of(
    st.tuples(st.sampled_from(["zip -r -D", "zip -q -r -D"]),
              st.lists(_PATHS, min_size=1, max_size=3)),
    st.tuples(st.just("pack"), st.lists(_ENTRY_NAMES, min_size=1, max_size=3, unique=True)),
    st.tuples(st.sampled_from(["unzip", "unzip -q"]), _PATHS.map(lambda path: [path])),
)


def _packed(names):
    """A stored archive of an entry per name, each file's content naming its
    place."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for k, name in enumerate(names):
            archive.writestr(name, b"" if name.endswith("/") else f"entry {k}".encode())
    return buffer.getvalue()


def _archive_entries(data):
    """name -> bytes of each entry of zip archive data, or None for no
    archive."""
    if data is None:
        return None
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _outside_grammar(argv):
    """Whether argv, a command over local disk, is a form the client never
    sends: zip or unzip without -q, mv -T of a directory, or unzip -q of an
    archive with an entry whose name is not a clean relative path or,
    once its directory can be made, with one that would land on an existing
    path, below a file or below another entry."""
    if argv[0] in ("zip", "unzip") and "-q" not in argv:
        return True
    if argv[:2] == ["mv", "-T"]:
        return os.path.isdir(argv[2])
    if argv[0] != "unzip":
        return False
    directory = os.path.normpath(argv[4])
    try:
        with zipfile.ZipFile(argv[2]) as archive:
            names = archive.namelist()
    except (OSError, zipfile.BadZipFile):
        return False
    if any({"", ".", ".."} & set(name.split("/")) for name in names):
        return True
    if not os.path.isdir(directory) and (os.path.lexists(directory)
                                         or not os.path.isdir(os.path.dirname(directory))):
        return False
    return any(os.path.lexists(os.path.join(directory, name)) or any(
        parent in names or os.path.isfile(os.path.join(directory, parent))
        for parent in itertools.accumulate(name.split("/")[:-1], posixpath.join))
        for name in names)


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
            {f[len(prefix):]: fs.read(f) for f in fs.files if f.startswith(prefix)})


# The examples that unpack entries named '../x', '/x', './x' or '/', unzip
# without -q, or unpack an archive a second time, once matched Info-ZIP's
# name mapping and replace prompt; they are refusals now.
@pytest.mark.skipif(
    any(shutil.which(tool) is None for tool in ("mkdir", "rm", "test", "mv", "zip", "unzip")),
    reason="coreutils mkdir/rm/test/mv or Info-ZIP zip/unzip not installed")
@settings(max_examples=100, deadline=None)
@example([("mkdir -p", ["a/b", "c"]), ("put", ["b"]), ("mv -T", ["b", "c"]),
          ("mv -T", ["a", "c"]), ("mv -T", ["c", "c/b"]), ("mv -T", ["b", "a/"]),
          ("mv -T", ["b", "c/b/a"]), ("mv -T", ["c/b/a", "c/b/a"]), ("mkdir -p", ["a"]),
          ("mv -T", ["c/b/", "a/"]), ("put", ["c"]), ("mv -T", ["a/a", "c"])])
@example([("mkdir -p", ["a/b"]), ("put", ["a/b/c"]), ("put", ["b"]),
          ("zip -r -D", ["a", "b", "c"]), ("unzip", ["c"]), ("unzip", ["c"]),
          ("unzip", ["b/a"]), ("unzip", ["a/a/a"]), ("zip -r -D", ["c/b"])])
@example([("mkdir -p", ["a/b"]), ("put", ["c"]), ("rm -f", ["a/", "c/"]), ("rm -f", ["a", "b"]),
          ("rm -f", ["a/b/", "c"]), ("rm -rf", ["a/b/"])])
@example([("mkdir -p", ["a/b"]), ("put", ["a/b/c"]), ("zip -q -r -D", ["a", "b"]),
          ("unzip -q", ["c"]), ("unzip -q", ["c"]), ("unzip -q", ["a/b/c"]),
          ("zip -q -r -D", ["b"])])
@example([("pack", ["../up.txt", "a/../../x.txt", "./b/./c.txt", "/abs.txt"]),
          ("unzip -q", ["w"]), ("unzip", ["v"]), ("unzip -q", ["w"])])
@example([("pack", ["/", "a", "//", "./", "/a", "b/"]), ("unzip -q", ["w"]), ("unzip", ["w"])])
@example([("put", ["a"]), ("zip -r -D", ["a"]), ("unzip", ["a/"])])
@example([("mkdir -p", ["c"]), ("put", ["c/b"]), ("pack", ["b/a", "./b/c", "/b/a/c", "b/", "a/b"]),
          ("unzip -q", ["c"]), ("unzip", ["c/"])])
@example([("mkdir -p", ["c"]), ("put", ["c/b"]), ("pack", ["a/b", "b/a"]),
          ("unzip -q", ["c"]), ("pack", ["a/c", "b"]), ("unzip -q", ["c"]), ("unzip -q", ["b/"]),
          ("pack", ["a", "a/b"]), ("unzip -q", ["a"])])
@given(st.lists(st.one_of(_FILE_OPS, _ARCHIVE_OPS), max_size=8))
def test_file_ops_match_real_tools(tmp_path_factory, ops):
    """In the forms the client sends, mkdir -p, rm -f, rm -rf, test -e,
    mv -T, zip -q -r -D, unzip -q and put_file give the simulator the same
    exit codes, the same tree and the same archive entries as the installed
    tools give local disk. Every other form drawn is refused: it exits
    non-zero and leaves the simulator's tree as it was, and the installed
    tool is not run. The simulator's tree sits at the same path as the real
    one, so entry names agree."""
    tmp = tmp_path_factory.mktemp("fileops")
    root = str(tmp / "tree")
    archive = tmp / "archive.zip"
    os.mkdir(root)
    endpoint = SimEndpoint(SimCluster())
    fs = endpoint.cluster.fs
    endpoint.make_dirs(root)
    for step, (op, paths) in enumerate(ops):
        if op == "pack":
            archive.write_bytes(_packed(paths))
            fs.write(str(archive), archive.read_bytes())
            continue
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
            argv += paths
            if _outside_grammar(argv):
                before = fs_snapshot(fs)
                assert endpoint.cluster.sim_exec(argv).exit_code != 0, (step, argv)
                assert fs_snapshot(fs) == before, (step, argv)
            else:
                sim = endpoint.cluster.sim_exec(argv)
                real = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True)
                assert sim.exit_code == real.returncode, (step, argv, real.stderr)
                real_archive = archive.read_bytes() if archive.exists() else None
                sim_archive = fs.read(str(archive)) if str(archive) in fs.files else None
                assert _archive_entries(sim_archive) == _archive_entries(real_archive)
        assert _sim_tree(fs, root) == _real_tree(root), (step, op)


def _damaged_archive(damage):
    """A three-entry archive whose first entry, a/x.bin, is damaged:
    stored-crc flips one of its data bytes, deflated-crc its CRC in both
    headers (so that it still inflates), deflated-data the block type of
    its deflate stream; lzma compresses it by a method the client never
    uses."""
    method = {"stored-crc": zipfile.ZIP_STORED, "lzma": zipfile.ZIP_LZMA}.get(
        damage, zipfile.ZIP_DEFLATED)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("a/x.bin", b"hello world " * 8, compress_type=method)
        archive.writestr("b.bin", b"second entry")
        archive.writestr("c.bin", b"")
    data = bytearray(buffer.getvalue())
    if damage == "stored-crc":
        data[data.index(b"hello world")] ^= 1
    elif damage == "deflated-crc":
        for crc_at in (14, data.index(b"PK\x01\x02") + 16):
            data[crc_at] ^= 1
    elif damage == "deflated-data":
        data[30 + len("a/x.bin")] |= 0b110  # block type 3, which is reserved
    return bytes(data)


@pytest.mark.skipif(shutil.which("unzip") is None, reason="Info-ZIP unzip not installed")
@pytest.mark.parametrize("damage,exit_code", [
    ("stored-crc", 2), ("deflated-crc", 2), ("deflated-data", 2)])
def test_damaged_archive_unzips_as_info_zip_does(tmp_path, damage, exit_code):
    """A damaged entry costs only itself: the other entries are extracted,
    and the simulator's `unzip -q` gives the exit status and stderr of the
    installed unzip. An entry that fails its CRC is written anyway; one that
    does not inflate is left out (Info-ZIP keeps what it inflated)."""
    archive, out = str(tmp_path / "damaged.zip"), str(tmp_path / "out")
    data = _damaged_archive(damage)
    (tmp_path / "damaged.zip").write_bytes(data)
    cluster = SimCluster()
    cluster.fs.make_dirs(str(tmp_path))
    cluster.fs.write(archive, data)
    argv = ["unzip", "-q", archive, "-d", out]
    real = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    sim = cluster.sim_exec(argv)
    assert (sim.exit_code, sim.stdout, sim.stderr) == (real.returncode, real.stdout, real.stderr)
    assert sim.exit_code == exit_code
    dirs, files = _real_tree(out)
    if damage == "deflated-data":
        del files["a/x.bin"]
    assert _sim_tree(cluster.fs, out) == (dirs, files)


@pytest.mark.skipif(shutil.which("unzip") is None, reason="Info-ZIP unzip not installed")
def test_unzip_of_no_archive_makes_nothing(tmp_path):
    """A file that is no zip archive: unzip exits 9 and makes no directory."""
    archive, out = str(tmp_path / "none.zip"), str(tmp_path / "out")
    (tmp_path / "none.zip").write_bytes(b"no archive")
    cluster = SimCluster()
    cluster.fs.make_dirs(str(tmp_path))
    cluster.fs.write(archive, b"no archive")
    argv = ["unzip", "-q", archive, "-d", out]
    real = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True)
    assert cluster.sim_exec(argv).exit_code == real.returncode == 9
    assert not cluster.fs.exists(out) and not os.path.exists(out)


_UNPACK = ["unzip", "-q", "/w/a.zip", "-d", "/w/out"]


def _packed_twice(name):
    """A stored archive of two entries of one name, each with its content."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of the duplicate name
        return _packed(["new", name, name])


@pytest.mark.parametrize("archive,argv", [
    pytest.param(_packed(["x/y", "z"]), ["unzip", "/w/a.zip", "-d", "/w/out"],
                 id="unzip-without-q"),
    *[pytest.param(_packed(["z", name]), _UNPACK, id=f"entry-{label}") for name, label in
      [("../x", "dotdot"), ("/x", "absolute"), ("./x", "dot"), ("/", "root")]],
    pytest.param(_packed(["new", "f"]), ["unzip", "-q", "/w/a.zip", "-d", "/w"],
                 id="entry-on-existing-file"),
    pytest.param(_packed(["new", "f/x"]), ["unzip", "-q", "/w/a.zip", "-d", "/w"],
                 id="entry-below-existing-file"),
    pytest.param(_packed(["new", "new/x"]), _UNPACK, id="entry-below-another-entry"),
    pytest.param(_packed_twice("x"), _UNPACK, id="entry-twice"),
    pytest.param(_damaged_archive("lzma"), _UNPACK, id="lzma"),
    pytest.param(b"", ["zip", "-r", "-D", "/w/b.zip", "/w/d"], id="zip-without-q"),
    pytest.param(b"", ["mv", "-T", "/w/d", "/w/e"], id="mv-directory"),
    pytest.param(b"", ["rm", "-r", "/w/d"], id="rm-r"),
    pytest.param(b"", ["echo", "hi"], id="echo"),
    pytest.param(b"", ["squeue", "-h", "-j", "1", "-o", "%i"], id="squeue-by-id"),
    pytest.param(b"", ["squeue", "-h", "--name=n", "-o", "%i"], id="squeue-without-a"),
    pytest.param(b"", ["squeue", "-a", "--name=n", "-o", "%i"], id="squeue-without-h"),
    pytest.param(b"", ["squeue", "-a", "-h", "--name=n", "-o", "%A"], id="squeue-other-format"),
    pytest.param(b"", ["squeue", "-a", "-h", "-n", "n", "-o", "%i"], id="squeue-short-name"),
    pytest.param(b"", ["squeue"], id="squeue-bare"),
    pytest.param(b"", ["sacct", "-n", "-P", "-X", "-o", "JobID,State", "-j", "1"],
                 id="sacct-by-id"),
    pytest.param(b"", ["sacct", "-n", "-P", "-X", "--name=n", "-o", "JobID,State"],
                 id="sacct-other-format"),
    pytest.param(b"", ["sacct", "-n", "-P", "-X", "--name=n", "-S", "yesterday",
                       "-o", "JobID,WorkDir,State"], id="sacct-time-of-another-form"),
    pytest.param(b"", ["sacct", "-n", "-P", "-X", "--name=n", "-S",
                       "-o", "JobID,WorkDir,State"], id="sacct-S-without-time"),
    pytest.param(b"", ["sacct", "-n", "-P", "--name=n", "-o", "JobID,WorkDir,State"],
                 id="sacct-without-X"),
    pytest.param(b"", ["sacct", "-n", "-P", "-X", "--name=n", "-S", "2024-01-01T00:00:00",
                       "-o", "JobID,WorkDir,State"], id="sacct-S-as-a-time"),
])
def test_forms_the_client_never_sends_are_refused(archive, argv):
    """A form of a command outside the client's grammar answers non-zero
    and changes nothing; the unzip cases would each extract a clean entry
    if they went ahead."""
    cluster = SimCluster()
    cluster.fs.make_dirs("/w/d")
    cluster.fs.write("/w/f", b"f")
    cluster.fs.write("/w/d/g", b"g")
    cluster.fs.write("/w/a.zip", archive)
    before = fs_snapshot(cluster.fs)
    assert cluster.sim_exec(argv).exit_code != 0
    assert fs_snapshot(cluster.fs) == before


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sha256sum", "base64")),
                    reason="coreutils sha256sum/base64 not installed")
@pytest.mark.parametrize("size", [0, 1, 56, 57, 58, 76, 1000])
def test_digest_and_stream_match_coreutils(tmp_path, size):
    """The simulator's `sha256sum FILE` and `base64 FILE` print what the
    installed coreutils print, byte for byte, on either side of base64's
    57-byte line of 76 columns; a missing file, a directory and a file
    named with a trailing '/' give exit 1 and no stdout."""
    path = str(tmp_path / "payload.bin")
    data = bytes((7 * k + 3) % 256 for k in range(size))
    with open(path, "wb") as handle:
        handle.write(data)
    cluster = SimCluster()
    cluster.fs.make_dirs(str(tmp_path))
    cluster.fs.write(path, data)
    for tool in ("sha256sum", "base64"):
        for target in (path, str(tmp_path / "missing.bin"), str(tmp_path), path + "/"):
            real = subprocess.run([tool, target], capture_output=True, text=True)
            sim = cluster.sim_exec([tool, target])
            assert (sim.exit_code, sim.stdout) == (real.returncode, real.stdout), (tool, target)
            assert sim.stderr == real.stderr
        missing = cluster.sim_exec([tool, str(tmp_path / "missing.bin")])
        assert (missing.exit_code, missing.stdout) == (1, "")


def ssh_endpoint(scratch_dir="/scratch"):
    return transport.SshEndpoint(
        ClusterProfile(host="hpc", user="u", key_path="/k", scratch_dir=str(scratch_dir)))


# The client's commands that need no local file: _FILE_OPS less put, drawn
# without a filter, which hypothesis's health check may refuse for the draws
# it discards. `mv -T` is left out: whether its source is a directory, which
# the simulator refuses, depends on the commands before it in the same launch.
_LISTED_OPS = st.one_of(
    st.tuples(st.sampled_from(["mkdir -p", "rm -f", "rm -rf"]),
              st.lists(_PATHS, min_size=1, max_size=2)),
    st.tuples(st.sampled_from(["test -e", "sha256sum", "base64"]),
              _PATHS.map(lambda path: [path])),
)


@pytest.mark.skipif(
    any(shutil.which(tool) is None for tool in ("sh", "mkdir", "rm", "test", "sha256sum",
                                                 "base64")),
    reason="sh or coreutils mkdir/rm/test/sha256sum/base64 not installed")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([("sha256sum", ["a/b"]), ("mkdir -p", ["a/b"]), ("test -e", ["a/b"]),
          ("rm -rf", ["a"]), ("base64", ["c"]), ("base64", ["a/b"])],
         [("sha256sum", ["c"]), ("mkdir -p", ["b"])])
@example([("mkdir -p", ["b"]), ("test -e", ["a/"])],
         [("base64", ["a/b"]), ("rm -f", ["a"]), ("sha256sum", ["c/"]), ("rm -rf", ["a"])])
@given(st.lists(_LISTED_OPS, min_size=1, max_size=8), st.lists(_LISTED_OPS, max_size=4))
def test_exec_many_matches_real_shell(shell_router, tmp_path_factory, ops, then_ops):
    """One exec_many gives the simulator the same exit code and stdout per
    command, the same commands not run, and the same tree, as SshEndpoint
    gets from the installed sh and tools on local disk: a failing command
    does not stop the ones after it, but stops every then command, and a
    failing then command stops none. Both trees start with a file a/b and
    an empty file c, at the same path, so that sha256sum prints the same."""
    root = str(tmp_path_factory.mktemp("shell") / "tree")
    os.makedirs(os.path.join(root, "a"))
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs(root + "/a")
    for name, data in (("a/b", b"ab\n"), ("c", b"")):
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(data)
        endpoint.cluster.fs.write(f"{root}/{name}", data)

    def commands(ops):
        return [op.split() + [f"{root}/{arg}" for arg in args] for op, args in ops]

    def outcomes(results):
        return [None if r is None else (r.exit_code, r.stdout) for r in results]

    sim = endpoint.exec_many(commands(ops), then=commands(then_ops))
    real = ssh_endpoint().exec_many(commands(ops), then=commands(then_ops))
    assert outcomes(sim) == outcomes(real)
    assert len(real) == len(ops) + len(then_ops)
    assert _sim_tree(endpoint.cluster.fs, root) == _real_tree(root)


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not installed")
def test_output_without_a_final_newline_keeps_its_frame(shell_router):
    """Output that does not end in a newline, on stdout or stderr, is its
    own command's whole output: the framing of one exec_many launch keeps it
    apart from the next command's."""
    results = ssh_endpoint().exec_many(
        [["echo", "-n", "no newline"], ["sh", "-c", "printf oops >&2"], ["echo", "after"]],
        then=[["printf", "%s", "last"]])
    assert [(r.exit_code, r.stdout, r.stderr) for r in results] == [
        (0, "no newline", ""), (0, "", "oops"), (0, "after\n", ""), (0, "last", "")]


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not installed")
def test_output_that_is_not_utf8_keeps_its_frame(shell_router):
    """A byte that is not UTF-8 on stderr, as a Latin-1 login banner or a
    file name in a zip message may print, is read as U+FFFD: the launch
    still unframes into every command's result."""
    shell_router.stub("latin1", "printf 'bad \\377' >&2\nprintf 'caf\\351\\n'\n")
    results = ssh_endpoint().exec_many([["latin1"], ["echo", "after"]], then=[["latin1"]])
    assert [(r.exit_code, r.stdout, r.stderr) for r in results] == [
        (0, "caf\ufffd\n", "bad \ufffd"), (0, "after\n", ""), (0, "caf\ufffd\n", "bad \ufffd")]


@pytest.mark.parametrize("cut", [-1, -36], ids=["last-newline", "last-marker"])
def test_framed_output_short_of_a_marker_is_lost(cut):
    """An answer cut short of its last exit marker line reads as a lost
    answer, not as fewer results."""

    class CutsShort(SimEndpoint):
        def exec(self, command, timeout=transport.DEFAULT_DEADLINE_S):
            result = super().exec(command, timeout)
            return transport.ExecResult(result.exit_code, result.stdout[:cut], result.stderr)

    with pytest.raises(TransportError, match="framed output holds 1 of 2 exit markers"):
        CutsShort(SimCluster()).exec_many([["test", "-e", "/"]], then=[["test", "-e", "/x"]])


def test_launches_leave_no_pattern_behind():
    """Each exec_many frames its commands with a fresh mark, and reading
    the output back compiles nothing: 600 launches retain under 64 KiB,
    where a pattern per mark would fill re's cache with 512."""
    endpoint = SimEndpoint(SimCluster())
    commands = [["mkdir", "-p", "/scratch/x"], ["test", "-e", "/scratch/x"]]
    for _ in range(50):
        endpoint.exec_many(commands)
    re.purge()
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(600):
            assert [result.ok for result in endpoint.exec_many(commands)] == [True, True]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert retained < 64 << 10, retained


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


# A command that prints a text and exits with a status, and what `sh` gives
# for it; output that `$(...)` captures loses its trailing newlines, and
# "${c<k>%%;*}" keeps what comes before the first ';'.
_PRINTS = 'printf %s "$1"; exit "$2"'
_TEXTS = st.text(alphabet="0123456789ab;\n $'\"*%\\", max_size=8)


def _prints(text, status):
    return ["sh", "-c", _PRINTS, "sh", text, str(status)]


def _as_sh_runs(argv):
    """The ExecResult of one command drawn by _framed_scripts, as sh gives it."""
    if argv[0] == "sh":
        return transport.ExecResult(int(argv[5]), argv[4], "")
    return transport.ExecResult(0, "".join(word + "|" for word in argv[2:]), "")


@st.composite
def _framed_scripts(draw):
    """(commands, then): commands that print and exit as drawn, some of
    them Quiet, and then commands that do too or that print their words,
    one of them a Captured token that takes an earlier printing then
    command's output."""
    commands = [_prints(draw(_TEXTS), draw(st.sampled_from([0, 0, 1])))
                for _ in range(draw(st.integers(0, 2)))]
    commands = [transport.Quiet(argv) if draw(st.booleans()) else argv for argv in commands]
    then, printing = [], []
    for k in range(draw(st.integers(1, 5))):
        if printing and draw(st.booleans()):
            words = draw(st.lists(_TEXTS, max_size=2))
            token = transport.Captured(draw(st.sampled_from(printing)), draw(_TEXTS))
            then.append(["printf", "%s|", *words[:1], token, *words[1:]])
        else:
            printing.append(k)
            then.append(_prints(draw(_TEXTS), draw(st.sampled_from([0, 0, 2]))))
    return commands, then


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not installed")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(([], [_prints("7;cluster\n\n", 0),
               ["printf", "%s|", transport.Captured(0, "--dependency=afterok:")]]))
@example(([_prints("", 1)], [_prints("3", 0), ["printf", "%s|", transport.Captured(0)]]))
@example(([], [_prints("4\n", 2), ["printf", "%s|", transport.Captured(0, "x")],
               _prints("5", 0)]))
@example(([transport.Quiet(_prints("\n\n", 0)), transport.Quiet(_prints("", 0))],
          [_prints("ran", 0)]))
@example(([transport.Quiet(_prints("7_[1-3]\n", 0))], [_prints("held", 0)]))
@example(([transport.Quiet(_prints("", 1))], [_prints("held", 0)]))
@given(_framed_scripts())
def test_capture_template_matches_real_shell(shell_router, script):
    """The capture and Quiet kinds of the framing program, run by sh
    through SshEndpoint, give every command the result that run_framed, the
    simulator's reading of them, gives: a captured command's stdout less
    its trailing newlines, the captured text up to its first ';' in the
    later argv, and that argv not run unless the captured command exited 0;
    a Quiet command its argv's stdout less its trailing newlines, and exit
    0 only if its argv exited 0 and printed nothing but newlines. The
    launch reads back as written."""
    commands, then = script
    real = ssh_endpoint().exec_many(commands, then=then)
    modelled = transport.run_framed(commands, then, _as_sh_runs)
    assert [None if r is None else (r.exit_code, r.stdout, r.stderr) for r in real] == [
        None if r is None else (r.exit_code, r.stdout, r.stderr) for r in modelled]
    framed = transport.frame_commands(commands, then)
    assert transport.unframe_commands(framed) == (framed[4], commands, then)


def test_capture_template_reads_back_only_as_written():
    """A launch of every kind of command frames as the program and then each
    command's header and words, and unframe_commands refuses the words when
    any of them is changed, dropped or added; frame_commands refuses a
    Captured token that names no earlier then command, or one that itself
    takes output."""
    guard = transport.Quiet(["squeue", "-a", "-h", "--name=n", "-o", "%i"])
    token = transport.Captured(1, "--dependency=afterok:")
    commands = [guard, ["true"]]
    then = [["echo"], ["sbatch", "--parsable", "a.sh"], ["sbatch", token, "b.sh"],
            ["echo", transport.Captured(1)]]
    framed = transport.frame_commands(commands, then)
    assert framed[:4] == ["sh", "-c", transport._FRAMED, "sh"]
    assert framed[5:] == [
        "q", "6", "squeue", "-a", "-h", "--name=n", "-o", "%i", "c", "1", "true",
        "t", "1", "echo", "k", "3", "sbatch", "--parsable", "a.sh",
        "a", "1", "2", "3", "sbatch", "--dependency=afterok:", "b.sh",
        "a", "1", "2", "2", "echo", ""]
    assert transport.unframe_commands(framed) == (framed[4], commands, then)
    changes = {
        "kind": [(5, "x"), (13, "k"), (16, "c"), (19, "t"), (24, "t"), (31, "k")],
        "source": [(25, "2"), (25, "-1"), (25, "0"), (32, "2"), (32, "1 ")],
        "position": [(26, "0"), (26, "4"), (26, "x")],
        "count": [(6, "7"), (6, "5"), (20, "4"), (20, "2"), (20, "03"), (34, "3")],
    }
    for what, edits in changes.items():
        for at, word in edits:
            changed = framed[:at] + [word] + framed[at + 1:]
            assert transport.unframe_commands(changed) is None, (what, at, word)
    for changed in (framed[:19] + ["c", "1", "true"] + framed[19:],  # a command after a then
                    framed[:-1], framed + ["true"], framed + ["t"], framed + ["t", "1"],
                    framed[:4], ["bash"] + framed[1:], framed[:1] + ["-e"] + framed[2:],
                    framed[:2] + [transport._FRAMED + " "] + framed[3:],
                    framed[:3] + ["bash"] + framed[4:]):
        assert transport.unframe_commands(changed) is None, changed
    for then in ([["echo", transport.Captured(0)]],
                 [["echo"], ["echo", transport.Captured(1)]],
                 [["echo"], ["echo", transport.Captured(0)], ["echo", transport.Captured(1)]],
                 [["echo"], ["echo", transport.Captured(0), transport.Captured(0)]]):
        with pytest.raises(ValueError):
            transport.frame_commands([], then)


def test_framing_holds_no_newline_and_no_bang():
    """A login shell passes the framing on as it is: it holds no newline,
    which csh rejects inside quotes, and no '!', which csh expands even
    inside them; neither does any word it adds to a launch of every kind."""
    assert "\n" not in transport._FRAMED and "!" not in transport._FRAMED
    framed = transport.frame_commands(
        [["true"], transport.Quiet(["true"])],
        [["true"], ["echo"], ["echo", transport.Captured(1, "x")]])
    assert [framed[5], framed[8], framed[11], framed[14], framed[17]] == ["c", "q", "t", "k", "a"]
    assert not [word for word in framed if "\n" in word or "!" in word]


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not installed")
def test_hostile_words_are_never_shell_text(shell_router, tmp_path):
    """Words that sh would expand, split, glob or run, in a command, a Quiet
    command, a Captured token's prefix and the output it captures, reach
    their command verbatim, and nothing they name is made."""
    made = tmp_path / "made"
    made.mkdir()
    words = [f"$(touch {made}/a)", f"`touch {made}/b`", f"'; touch {made}/c; '", '"', "\\",
             "*", "%%;*", "${IFS}", "$((1+1))", "-n", "", "two\nlines"]
    shell_router.stub("words", 'for w; do printf "[%s]" "$w" >&2; done\n')
    printed = f"1$(touch {made}/f);x"
    commands = [["words", *words], transport.Quiet(["words", *words])]
    then = [["printf", "%s", printed], *(["words", transport.Captured(0, word)] for word in words)]
    framed = transport.frame_commands(commands, then)
    assert transport.unframe_commands(framed) == (framed[4], commands, then)
    results = ssh_endpoint().exec_many(commands, then=then)
    listed = "".join(f"[{word}]" for word in words)
    assert [(r.exit_code, r.stdout, r.stderr) for r in results[:3]] == [
        (0, "", listed), (0, "", listed), (0, printed, "")]
    assert [(r.exit_code, r.stderr) for r in results[3:]] == [
        (0, f"[{word}1$(touch {made}/f)]") for word in words]
    assert os.listdir(made) == []


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash not installed")
class TestBashAsSh:
    """The framing differential tests again, with bash as `sh` (run under
    that name, so in POSIX mode), as on the login nodes of RHEL-family
    clusters; above, the system sh runs them."""

    @pytest.fixture
    def shell_router(self, shell_router):
        shell_router.sh_as("bash")
        return shell_router

    test_exec_many_matches_real_shell = staticmethod(test_exec_many_matches_real_shell)
    test_capture_template_matches_real_shell = staticmethod(
        test_capture_template_matches_real_shell)
    test_ssh_exec_many_is_one_launch = staticmethod(test_ssh_exec_many_is_one_launch)
    test_hostile_words_are_never_shell_text = staticmethod(
        test_hostile_words_are_never_shell_text)


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


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sh", "cp", "sha256sum", "mv")),
                    reason="sh or coreutils cp/sha256sum/mv not installed")
@pytest.mark.parametrize("slash", ["", "/"])
def test_ssh_put_onto_directory_is_refused(shell_router, tmp_path, slash):
    """`mv -T` will not put the staged file inside a directory at the
    target: the put fails, and the directory and its parent are as before,
    with no staging file left."""
    target = tmp_path / "remote" / "target"
    target.mkdir(parents=True)
    (target / "kept.bin").write_bytes(b"kept")
    local = tmp_path / "local.bin"
    local.write_bytes(b"payload")
    with pytest.raises(DestinationUnwritable):
        ssh_endpoint(tmp_path).put_file(str(local), str(target) + slash)
    assert _real_tree(tmp_path / "remote") == ({"target"}, {"target/kept.bin": b"kept"})


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sh", "true")),
                    reason="sh or true not installed")
@pytest.mark.parametrize("size", [131071, 131072])
def test_a_command_over_the_argument_limit_cannot_start(shell_router, size):
    """ssh gets each command as one argument, which Linux refuses over
    131,071 bytes (MAX_ARG_STRLEN, with its NUL): SshEndpoint raises
    SpawnFailed, naming the cause, where ssh cannot start, and the
    simulator refuses the same command alike."""
    command = ["true", "x" * (size - len("true "))]
    assert len(shlex.join(command).encode()) == size
    endpoints = (ssh_endpoint(), SimEndpoint(SimCluster()))
    if size < 131072:  # it runs; the simulator knows no `true`
        assert [endpoint.exec(command).exit_code for endpoint in endpoints] == [0, 127]
        return
    for endpoint in endpoints:
        with pytest.raises(SpawnFailed, match="^ssh could not start: Argument list too long$"):
            endpoint.exec(command)


def test_ssh_not_installed_raises_spawn_failed(monkeypatch):
    def no_ssh(argv, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", argv[0])

    monkeypatch.setattr(transport.subprocess, "run", no_ssh)
    with pytest.raises(SpawnFailed, match="^ssh could not start: No such file or directory$"):
        ssh_endpoint().exec(["true"])


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
