import json
import os
import re
import shutil
import subprocess
import tracemalloc

import pytest

from slurmbridge import config as config_mod
from slurmbridge import descriptor as descriptor_mod
from slurmbridge import transport
from slurmbridge.simslurm import SimCluster, SimEndpoint

CELLPOSE_DESCRIPTOR = {
    "name": "W_NucleiSegmentation-Cellpose",
    "schema-version": "cytomine-0.1",
    "container-image": {"image": "demo/w_nucleisegmentation-cellpose", "version": "v1.2.9"},
    "command-line": "python wrapper.py [DIAMETER]",
    "inputs": [
        {
            "id": "diameter",
            "name": "Diameter",
            "description": "Cell diameter in pixels",
            "type": "Number",
            "default-value": 30,
            "command-line-flag": "--diameter",
            "optional": True,
        }
    ],
}

SAMPLE_CONFIG = """\
[ssh]
host = hpc.example.org
user = omero
key_path = /etc/keys/id_ed25519
port = 22

[cluster]
scratch_dir = /scratch/omero

[registry]
namespace = demo

[defaults]
mem_mb = 4096
cpus = 2
gpus = 0
time_limit_min = 60

[converters]
zarr_to_tiff = demo/converter-zarr-tiff:v1.0.0

[workflow.cellpose]
repo_url = https://github.com/demo/W_NucleiSegmentation-Cellpose
version = v1.2.9
"""


@pytest.fixture
def cellpose_descriptor_text():
    return json.dumps(CELLPOSE_DESCRIPTOR)


@pytest.fixture
def cellpose_descriptor(cellpose_descriptor_text):
    return descriptor_mod.parse_descriptor(cellpose_descriptor_text)


@pytest.fixture
def sample_profile_registry():
    return config_mod.parse_config(SAMPLE_CONFIG)


@pytest.fixture
def sim_endpoint():
    return SimEndpoint(SimCluster())


# The `user@host:` that scp puts before a remote path.
_SCP_HOST = re.compile(r"^[^@/]+@[^:/]+:")


class ShellRouter:
    """Stands in for subprocess.run, so that SshEndpoint's processes run on
    this machine: an ssh process runs its remote command line as
    `sh -c <line>`, with bin_dir first on PATH, as the login shell of the
    remote host would, and an scp process runs as cp with `user@host:`
    stripped from its paths. Every process routed must take stdin from
    /dev/null; any other process goes to the real subprocess.run."""

    def __init__(self, bin_dir, run):
        self.bin_dir = bin_dir
        self.run = run
        self.env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}"}
        self.launches = []  # the argv of every ssh and scp process, in order
        # Given an argv, whether the link drops instead: the process does
        # not run, and ssh or scp exits 255.
        self.drop = lambda argv: False

    def stub(self, name, body):
        """Put an executable sh script of that name and body on the PATH."""
        path = self.bin_dir / name
        path.write_text("#!/bin/sh\n" + body)
        path.chmod(0o755)

    def sh_as(self, shell):
        """Make `sh` on the PATH, the login shell's and the one it starts,
        the installed shell of that name, run as `sh`."""
        (self.bin_dir / "sh").symlink_to(shutil.which(shell))

    def __call__(self, argv, **kwargs):
        if argv[0] not in ("ssh", "scp"):
            return self.run(argv, **kwargs)
        assert kwargs.get("stdin") is subprocess.DEVNULL, argv
        self.launches.append(argv)
        if self.drop(argv):
            return subprocess.CompletedProcess(argv, 255, "", "Connection closed\n")
        if argv[0] == "ssh":
            local = ["sh", "-c", argv[-1]]
        else:
            local = ["cp"] + [_SCP_HOST.sub("", path) for path in argv[-2:]]
        return self.run(local, env=self.env, **kwargs)


@pytest.fixture
def shell_router(tmp_path_factory, monkeypatch):
    """A ShellRouter in place of subprocess.run, with an empty bin dir."""
    router = ShellRouter(tmp_path_factory.mktemp("bin"), subprocess.run)
    monkeypatch.setattr(transport.subprocess, "run", router)
    return router


def make_tiff_inputs(directory, count, prefix="img"):
    """Synthetic 2D TIFF files with distinct content."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index in range(count):
        path = os.path.join(directory, f"{prefix}{index:02d}.tiff")
        with open(path, "wb") as handle:
            handle.write(b"II*\x00" + f"synthetic tiff {index}".encode())
        paths.append(path)
    return paths


def make_zarr_inputs(directory, count, prefix="vol", chunks=3):
    """Synthetic ZARR stores: one directory tree per item."""
    paths = []
    for index in range(count):
        root = os.path.join(directory, f"{prefix}{index:02d}.zarr")
        os.makedirs(os.path.join(root, "0"), exist_ok=True)
        with open(os.path.join(root, ".zattrs"), "w") as handle:
            handle.write("{}")
        for chunk in range(chunks):
            with open(os.path.join(root, "0", f"{chunk}"), "wb") as handle:
                handle.write(f"chunk {index}/{chunk}".encode())
        paths.append(root)
    return paths


def record_signature(record):
    """Structure of a RunRecord with run ids, job ids, and timestamps
    normalized away, for equivalence comparisons."""

    def scrub(text):
        return str(text).replace(record.run_id, "<run>")

    return {
        "workflow": record.workflow,
        "version": record.version,
        "values": record.values,
        "state": record.overall_state.value,
        "items": [item.id for item in record.items],
        "batches": [{"index": b.index, "items": list(b.items), "remote_dir": scrub(b.remote_dir),
                     "state": b.state.value if b.state else None,
                     "result_zip": scrub(os.path.basename(b.result_zip)) if b.result_zip else None}
                    for b in record.batches],
        "artifacts": sorted(scrub(os.path.basename(p)) for p in record.output_artifacts),
    }


def traced_peak(call):
    """(call(), the most bytes that Python allocations held during it above
    what they held when it began), as tracemalloc counts them."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
