"""Golden runs: for each fixed scenario, the (stage, detail) rows a run gives
its listener and every command the simulator ran, in order, with the run id
and the local output dir scrubbed. A framed `sh -c` launch is recorded as
["sh", "-c", "<framed>"], followed by the commands inside it as they ran,
so the record holds no nonce.

The expectations live in tests/data/run_golden.json. After a change that
alters a run's commands or rows on purpose, rewrite them with
`PYTHONPATH=src python -m tests.test_run_golden` and review the diff."""

import json
import os

import pytest

from slurmbridge import orchestrator as orch
from slurmbridge import slurm
from slurmbridge.simslurm import FaultDirective, SimCluster, SimEndpoint
from slurmbridge.transport import ExecResult, unframe_commands
from tests.conftest import make_tiff_inputs, make_zarr_inputs
from tests.test_orchestrator import Events, FlakyLink, fast_options, packs_damaged

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "run_golden.json")


class UploadUnremovable(SimCluster):
    """Refuses `rm -f` of the uploaded archive."""

    def sim_exec(self, command):
        if command[:2] == ["rm", "-f"] and command[2].endswith(".zip"):
            return ExecResult(1, "", "rm: cannot remove: Permission denied\n")
        return super().sim_exec(command)


# name -> (input formats, cluster class, endpoint maker, RunOptions overrides,
# whether the archive is damaged after packing)
SCENARIOS = {
    "tiff": (("tiff",), SimCluster, SimEndpoint, {}, False),
    "tiff-zarr": (("tiff", "zarr"), SimCluster, SimEndpoint, {}, False),
    "damaged-upload": (("tiff",), SimCluster, SimEndpoint, {}, True),
    "lost-submission": (("tiff", "zarr"), SimCluster,
                        lambda cluster: FlakyLink(cluster, lose_submission=True), {}, False),
    "deadline": (("tiff", "zarr"), SimCluster, SimEndpoint, {"deadline_s": 5}, False),
    "third-accounting-failure": (("tiff",), SimCluster,
                                 lambda cluster: FlakyLink(cluster, [False, True, True, True]),
                                 {}, False),
    "upload-unremovable": (("tiff",), UploadUnremovable, SimEndpoint, {}, False),
}


def record_run(name, profile, registry, descriptor, workdir, monkeypatch):
    """The listener rows and simulator commands of the named scenario."""
    formats, cluster_class, make_endpoint, overrides, damaged = SCENARIOS[name]
    inputs = os.path.join(workdir, "inputs")
    if "tiff" in formats:
        make_tiff_inputs(inputs, 2)
    if "zarr" in formats:
        make_zarr_inputs(inputs, 2)
    if damaged:
        monkeypatch.setattr(orch, "pack_inputs", packs_damaged(orch.pack_inputs))
    cluster = cluster_class()
    cluster.inject_fault(FaultDirective(script_substring="job.sh", duration_s=20))
    slurm.init_environment(SimEndpoint(cluster), profile, registry)
    commands = []
    sim_exec = cluster.sim_exec

    def recording(command):
        framed = unframe_commands(command)
        commands.append(["sh", "-c", "<framed>"] if framed else list(command))
        return sim_exec(command)

    # The framed commands run through the instance's sim_exec, so they are
    # recorded too, each as it runs.
    cluster.sim_exec = recording
    events = Events()
    run_id = "golden-run"
    orch.run_workflow_batched(
        make_endpoint(cluster), profile, registry, descriptor, "cellpose", {},
        orch.scan_input_dir(inputs), 2, options=fast_options(**overrides),
        local_output_dir=os.path.join(workdir, "out"), listener=events, run_id=run_id)

    def scrub(text):
        return text.replace(workdir, "<workdir>").replace(run_id, "<run>")

    return {"events": [[stage, scrub(detail)] for stage, detail in events],
            "commands": [[scrub(token) for token in argv] for argv in commands]}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_its_golden_record(name, sample_profile_registry, cellpose_descriptor,
                                       tmp_path, monkeypatch):
    profile, registry = sample_profile_registry
    with open(GOLDEN) as handle:
        expected = json.load(handle)[name]
    assert record_run(name, profile, registry, cellpose_descriptor, str(tmp_path),
                      monkeypatch) == expected


def _rewrite():
    """Write every scenario's record to GOLDEN."""
    import tempfile

    from slurmbridge import config as config_mod
    from slurmbridge import descriptor as descriptor_mod
    from tests.conftest import CELLPOSE_DESCRIPTOR, SAMPLE_CONFIG

    profile, registry = config_mod.parse_config(SAMPLE_CONFIG)
    descriptor = descriptor_mod.parse_descriptor(json.dumps(CELLPOSE_DESCRIPTOR))
    records = {}
    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as workdir, pytest.MonkeyPatch.context() as patch:
            records[name] = record_run(name, profile, registry, descriptor, workdir, patch)
    # One row or command to a line, so that a diff shows what changed.
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f" {json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(key)}: [\n" + ",\n".join(
                    f"   {json.dumps(row)}" for row in record[key]) + "\n  ]"
                for key in ("events", "commands")) + "\n }"
            for name, record in records.items()) + "\n}\n")


if __name__ == "__main__":
    _rewrite()
