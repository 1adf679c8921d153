"""Whole runs through SshEndpoint, with its ssh and scp processes routed to
the installed /bin/sh and tools on local disk (the shell_router fixture),
and stub sbatch, sacct, scancel and singularity on the router's PATH."""

import dataclasses
import os
import shlex
import shutil
import zipfile

import pytest

from slurmbridge import orchestrator as orch
from slurmbridge import slurm
from slurmbridge.errors import TransferFailed
from slurmbridge.simslurm import SimCluster, SimEndpoint
from slurmbridge.transport import SshEndpoint
from tests.conftest import make_tiff_inputs, make_zarr_inputs

pytestmark = pytest.mark.skipif(
    any(shutil.which(tool) is None
        for tool in ("sh", "cp", "sed", "zip", "unzip", "sha256sum", "base64")),
    reason="sh, sed, Info-ZIP zip/unzip or coreutils cp/sha256sum/base64 not installed")

# sbatch runs the script at once, each task of an array in turn, writing
# each log where --output names it, and adds a `<id>|<state>` line per task
# to the accounting file that sacct prints. Job ids count up from 1, as the
# simulator's do.
SBATCH = """\
echo "$@" >> {state}/sbatch.calls
for arg; do script=$arg; done
id=$(cat {state}/next_id 2>/dev/null || echo 1)
echo $((id + 1)) > {state}/next_id
log=$(sed -n 's/^#SBATCH --output=//p' "$script")
last=$(sed -n 's/^#SBATCH --array=0-//p' "$script")
if [ -z "$last" ]; then
    sh "$script" > "$(echo "$log" | sed "s/%j/$id/")" 2>&1 && s=COMPLETED || s=FAILED
    echo "$id|$s" >> {state}/accounting
else
    k=0
    while [ "$k" -le "$last" ]; do
        SLURM_ARRAY_TASK_ID=$k sh "$script" > "$(echo "$log" | sed "s/%A/$id/; s/%a/$k/")" 2>&1 \\
            && s=COMPLETED || s=FAILED
        echo "${{id}}_$k|$s" >> {state}/accounting
        k=$((k + 1))
    done
fi
echo "Submitted batch job $id"
"""

# A conversion leaves its inputs as they are; the workflow writes
# <stem>_mask.tiff for each input, as the simulator does.
SINGULARITY = """\
case "$1" in
pull) echo image > "$2" ;;
exec)
    [ -n "$OUT_PATH" ] || exit 0
    for input in "$IN_PATH"/*; do
        name=${input##*/}
        echo "mask of $name" > "$OUT_PATH/${name%%.*}_mask.tiff"
    done ;;
esac
"""


def install_cluster(router, state):
    """Stub Slurm and singularity, keeping their state in the dir state."""
    state.mkdir()
    quoted = shlex.quote(str(state))
    router.stub("sbatch", SBATCH.format(state=quoted))
    router.stub("sacct", f"cat {quoted}/accounting\n")
    router.stub("scancel", f'echo "$@" >> {quoted}/scancel.calls\n')
    router.stub("singularity", SINGULARITY)


@pytest.fixture
def shell_run(shell_router, sample_profile_registry, cellpose_descriptor, tmp_path):
    """(run, profile, registry): run(endpoint, output_dir, listener=None,
    **options) runs 3 TIFF and 2 ZARR inputs in batches of 2 on profile,
    whose scratch dir, under tmp_path, is provisioned through SshEndpoint,
    and returns the RunRecord."""
    profile, registry = sample_profile_registry
    profile = dataclasses.replace(profile, scratch_dir=str(tmp_path / "scratch"))
    install_cluster(shell_router, tmp_path / "state")
    slurm.init_environment(SshEndpoint(profile), profile, registry)
    make_tiff_inputs(str(tmp_path / "inputs"), 3)
    make_zarr_inputs(str(tmp_path / "inputs"), 2)
    items = orch.scan_input_dir(str(tmp_path / "inputs"))
    shell_router.launches.clear()

    def run(endpoint, output_dir, listener=None, **options):
        return orch.run_workflow_batched(
            endpoint, profile, registry, cellpose_descriptor, "cellpose", {}, items, 2,
            orch.RunOptions(**options), local_output_dir=str(output_dir), listener=listener)

    return run, profile, registry


def data_left(profile):
    return os.listdir(os.path.join(profile.scratch_dir, "data"))


def outputs(record, output_dir):
    """The names in output_dir, the run id scrubbed, and the entry names of
    each batch's result zip."""
    names = sorted(name.replace(record.run_id, "<run>") for name in os.listdir(output_dir))
    entries = []
    for batch in record.batches:
        with zipfile.ZipFile(batch.result_zip) as archive:
            entries.append(sorted(archive.namelist()))
    return names, entries


def test_run_matches_the_simulator(shell_run, shell_router, tmp_path):
    """The run ends Done in 6 processes and one per poll: scp, sha256sum
    and mv for the upload, two submission launches and the retrieval
    launch. Its record, result zips and logs are named as the simulator's
    run of the same inputs on the same scratch dir names them, and it leaves
    nothing under data/."""
    run, profile, registry = shell_run
    events = []
    record = run(SshEndpoint(profile), tmp_path / "shell-out", poll_interval_s=0.01,
                 listener=lambda stage, detail: events.append((stage, detail)))
    assert record.overall_state is orch.RunStage.DONE, events
    programs = [argv[0] if argv[0] == "scp" else argv[-1].split()[0]
                for argv in shell_router.launches]
    polls = programs.count("sacct")
    assert polls >= 1
    assert programs == ["scp", "sha256sum", "mv", "sh", "sh"] + ["sacct"] * polls + ["sh"]
    assert data_left(profile) == []
    assert len(record.batches) == 3 and all(b.conversion_handle for b in record.batches[1:])

    sim = SimEndpoint(SimCluster())
    slurm.init_environment(sim, profile, registry)
    sim_record = run(sim, tmp_path / "sim-out")
    assert orch.record_signature(record) == orch.record_signature(sim_record)
    assert outputs(record, tmp_path / "shell-out") == outputs(sim_record, tmp_path / "sim-out")


def assert_failed_transfer(record, profile, state):
    """Every batch failed its transfer, nothing was submitted, and nothing
    is left under data/."""
    assert record.overall_state is orch.RunStage.FAILED
    assert all(isinstance(batch.error, TransferFailed) for batch in record.batches)
    assert not (state / "sbatch.calls").exists()
    assert data_left(profile) == []


def test_failed_setup_submits_nothing(shell_run, tmp_path):
    """With logs/ a regular file, the transfer launch's mkdir -p fails under
    /bin/sh, and its guard holds every sbatch back."""
    run, profile, _ = shell_run
    logs = os.path.join(profile.scratch_dir, "logs")
    os.rmdir(logs)
    with open(logs, "w"):
        pass
    record = run(SshEndpoint(profile), tmp_path / "out", poll_interval_s=0.01)
    assert_failed_transfer(record, profile, tmp_path / "state")
    assert "remote mkdir failed" in str(record.batches[0].error)


@pytest.mark.parametrize("lost", ["sha256sum", "mv"])
def test_interrupted_upload_leaves_nothing(shell_run, shell_router, tmp_path, lost):
    """The link drops on the launch that hashes the staged upload, or on the
    one that moves it into place: the run fails its transfer, and its
    teardown removes the staged file too."""
    run, profile, _ = shell_run
    shell_router.drop = lambda argv: argv[0] == "ssh" and argv[-1].split()[0] == lost
    record = run(SshEndpoint(profile), tmp_path / "out", poll_interval_s=0.01)
    assert_failed_transfer(record, profile, tmp_path / "state")
