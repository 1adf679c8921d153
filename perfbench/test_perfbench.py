"""Checks on the benchmark itself: the link model matches the SSH backend,
and one seed gives the same inputs and the same counts every time.

    python3 -m pytest -q perfbench
"""

import hashlib
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import harness  # noqa: E402
from linkmodel import LAUNCHES  # noqa: E402
from slurmbridge import transport  # noqa: E402
from slurmbridge.config import ClusterProfile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402


class FakeSsh:
    """Stands in for subprocess.run: records each launch and answers like a
    remote host holding one file."""

    def __init__(self):
        self.launches = []
        self.remote_content = b"remote payload"

    def __call__(self, argv, **kwargs):
        self.launches.append(argv)
        stdout = ""
        if argv[0] == "scp":
            source, target = argv[-2], argv[-1]
            if "@" in target:
                with open(source, "rb") as handle:
                    self.remote_content = handle.read()
            else:
                with open(target, "wb") as handle:
                    handle.write(self.remote_content)
        elif argv[-1].startswith("sha256sum "):
            stdout = hashlib.sha256(self.remote_content).hexdigest() + "  file\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")


@pytest.mark.parametrize("call", sorted(LAUNCHES) + ["put_bytes"])
def test_launches_match_ssh_endpoint(call, tmp_path, monkeypatch):
    fake = FakeSsh()
    monkeypatch.setattr(transport.subprocess, "run", fake)
    monkeypatch.setattr(transport.time, "sleep", lambda seconds: None)
    endpoint = transport.SshEndpoint(
        ClusterProfile(host="hpc", user="u", key_path="/k", scratch_dir="/scratch")
    )
    local = tmp_path / "local.bin"
    local.write_bytes(b"local payload")
    args = {
        "exec": (["true"],),
        "path_exists": ("/scratch/x",),
        "make_dirs": ("/scratch/x",),
        "remove_tree": ("/scratch/x",),
        "put_file": (str(local), "/scratch/x"),
        "put_bytes": (b"bytes payload", "/scratch/x"),
        "get_file": ("/scratch/x", str(tmp_path / "fetched.bin")),
        "sleep": (10,),
    }[call]
    getattr(endpoint, call)(*args)
    assert len(fake.launches) == LAUNCHES["put_file" if call == "put_bytes" else call]


def _tree_digest(directory):
    digest = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digest[os.path.relpath(path, directory)] = hashlib.sha256(handle.read()).digest()
    return digest


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs(workload, tmp_path):
    generate_inputs(workload, 7, tmp_path / "a")
    generate_inputs(workload, 7, tmp_path / "b")
    generate_inputs(workload, 8, tmp_path / "c")
    first = _tree_digest(tmp_path / "a")
    assert first == _tree_digest(tmp_path / "b")
    assert first != _tree_digest(tmp_path / "c")
    # Regenerating in place over another seed and a stray entry gives the
    # same files as a fresh directory.
    (tmp_path / "c" / "stray.tiff").write_bytes(b"x")
    generate_inputs(workload, 7, tmp_path / "c")
    assert _tree_digest(tmp_path / "c") == first


DETERMINISTIC = [
    "transport.exec.count", "transport.put_file.count", "transport.get_file.count",
    "transport.path_exists.count", "transport.make_dirs.count",
    "transport.remove_tree.count", "transport.launches", "transport.bytes_up",
    "transport.bytes_down", "cluster_wait_s", "simslurm.events", "slurm.poll_jobs.calls",
]


def _traced_counts(workload, seed, directory):
    generate_inputs(workload, seed, directory / "inputs")
    inputs = harness.prepare(workload, str(directory / "inputs"))
    tracer = Tracer(inputs.sizes)
    tracer.install()
    try:
        cluster = harness.provision(inputs)
        tracer.begin_run("run")
        metrics, problems = harness.run_once(inputs, cluster, str(directory / "out"), tracer)
    finally:
        tracer.restore()
    assert problems == []
    return {name: metrics[name] for name in DETERMINISTIC}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_identical_counts(workload, tmp_path):
    first = _traced_counts(workload, 3, tmp_path / "a")
    assert first == _traced_counts(workload, 3, tmp_path / "b")
    assert all(first[name] > 0 for name in DETERMINISTIC)
