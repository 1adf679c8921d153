"""Whole runs, and one submission launch, through SshEndpoint, with its ssh
and scp processes routed to the installed /bin/sh and tools on local disk
(the shell_router fixture), and stub sbatch, sacct, squeue, scancel and
singularity on the router's PATH."""

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
from slurmbridge.transport import ExecResult, SshEndpoint
from tests.conftest import make_tiff_inputs, make_zarr_inputs, record_signature
from tests.test_slurm_client import WORKFLOW_SCRIPT
from tests.test_transport import ssh_endpoint

pytestmark = pytest.mark.skipif(
    any(shutil.which(tool) is None
        for tool in ("sh", "cp", "sed", "zip", "unzip", "sha256sum", "base64")),
    reason="sh, sed, Info-ZIP zip/unzip or coreutils cp/sha256sum/base64 not installed")

# sbatch runs the script at once, each task of an array in turn, writing
# each log where --output names it, and adds a `<id>|<state>` line per task
# to the accounting file that sacct prints. Job ids count up from 1, as the
# simulator's do; under --parsable it prints the id alone.
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
case " $* " in
*" --parsable "*) echo "$id" ;;
*) echo "Submitted batch job $id" ;;
esac
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


# sbatch --parsable as the simulator answers it: a script that is not there
# is refused, and any other gets the next id, from 1; each call's arguments
# are logged.
PARSABLE_SBATCH = """\
echo "$@" >> {state}/sbatch.calls
for arg; do script=$arg; done
if [ ! -f "$script" ]; then
    echo "sbatch: error: Unable to open file $script" >&2
    exit 1
fi
id=$(cat {state}/next_id 2>/dev/null || echo 1)
echo $((id + 1)) > {state}/next_id
echo "$id"
"""


def install_cluster(router, state):
    """Stub Slurm and singularity, keeping their state in the dir state."""
    state.mkdir()
    quoted = shlex.quote(str(state))
    router.stub("sbatch", SBATCH.format(state=quoted))
    router.stub("sacct", f"cat {quoted}/accounting\n")
    # Every job ran to its end within its sbatch: none is queued.
    router.stub("squeue", "exit 0\n")
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
    """The run ends Done in 4 processes and one per poll: scp, sha256sum
    and mv for the upload and the submission launch; the one poll, as
    squeue lists no job, also brings the results back. That one submission
    launch hands each conversion's job id to the sbatch
    of its batch's workflow job. The run's record, result zips and logs are
    named as the simulator's run of the same inputs on the same scratch dir
    names them, and it leaves nothing under data/."""
    run, profile, registry = shell_run
    events = []
    record = run(SshEndpoint(profile), tmp_path / "shell-out", poll_interval_s=0.01,
                 listener=lambda stage, detail: events.append((stage, detail)))
    assert record.overall_state is orch.RunStage.DONE, events
    programs = [argv[0] if argv[0] == "scp" else argv[-1].split()[0]
                for argv in shell_router.launches]
    assert programs == ["scp", "sha256sum", "mv", "sh", "sh"]
    assert "squeue" in shell_router.launches[-1][-1]
    assert data_left(profile) == []
    assert len(record.batches) == 3 and all(b.conversion_handle for b in record.batches[1:])
    calls = (tmp_path / "state" / "sbatch.calls").read_text().splitlines()
    # Batch 0 holds TIFF inputs only; batches 1 and 2 convert as jobs 2 and 3.
    assert [call.split()[2:-1] for call in calls] == [[]] * 3 + [
        [f"--dependency=afterok:{conversion}", "--kill-on-invalid-dep=yes"]
        for conversion in (2, 3)]

    sim = SimEndpoint(SimCluster())
    slurm.init_environment(sim, profile, registry)
    sim_record = run(sim, tmp_path / "sim-out")
    assert record_signature(record) == record_signature(sim_record)
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


def test_submission_launch_with_stub_sbatch_matches_the_simulator(shell_router, tmp_path):
    """One submit_job launch, run by /bin/sh with a stub `sbatch --parsable`,
    gives each script the simulator's outcome: ids count up, a script that
    waits on a refused one is not submitted, and the sbatch of one that
    waits on a submitted one gets that job's id as its dependency."""
    state, jobs = tmp_path / "state", tmp_path / "jobs"
    state.mkdir()
    jobs.mkdir()
    shell_router.stub("sbatch", PARSABLE_SBATCH.format(state=shlex.quote(str(state))))
    paths = [str(jobs / f"{name}.sh") for name in ("convert", "missing", "job")]
    sim = SimEndpoint(SimCluster())
    sim.make_dirs(str(jobs))
    for path in (paths[0], paths[2]):
        with open(path, "w") as handle:
            handle.write(WORKFLOW_SCRIPT)
        sim.cluster.fs.write(path, WORKFLOW_SCRIPT.encode())
    scripts = [(paths[0], 2, None), (paths[1], None, None), (paths[2], None, 0),
               (paths[2], None, 1)]

    def outcomes(endpoint):
        ran = slurm.submit_job(endpoint, scripts, "sb-t", setup=[["test", "-e", paths[0]]])
        return [outcome if outcome is None or isinstance(outcome, slurm.JobHandle)
                else (outcome.ok, outcome.stdout) if isinstance(outcome, ExecResult)
                else str(outcome) for outcome in ran]

    real = outcomes(ssh_endpoint())
    assert real == outcomes(sim)
    assert real == [(True, ""), slurm.JobHandle(1, 2),
                    f"submission rejected (exit 1): sbatch: error: Unable to open file {paths[1]}",
                    slurm.JobHandle(2), None]
    assert (state / "sbatch.calls").read_text().splitlines() == [
        f"--parsable --job-name=sb-t {paths[0]}", f"--parsable --job-name=sb-t {paths[1]}",
        f"--parsable --job-name=sb-t --dependency=afterok:1 --kill-on-invalid-dep=yes {paths[2]}"]
    assert [(job.id, job.dependency) for job in sim.cluster.jobs.values()] == [(1, None), (2, 1)]


@pytest.mark.parametrize("squeue", [
    "exit 1\n", 'case "$1 $2 $3 $4 $5" in "-a -h --name=sb-"*" -o %i") echo 1 ;; esac\n'],
    ids=["fails", "lists-one-id"])
def test_guard_that_does_not_pass_keeps_the_run_dir(shell_run, shell_router, tmp_path, squeue):
    """Every job has ended and sacct says so, but squeue exits 1 with no
    output, or lists a job of the run's name: the poll launch removes
    nothing, and the run brings its results back in a retrieval launch of
    its own, which first cancels the jobs of that name."""
    run, profile, _ = shell_run
    shell_router.stub("squeue", squeue)
    run_dir = []  # whether the run dir was there after each poll launch
    route = shell_router.run

    def routed(argv, **kwargs):
        result = route(argv, **kwargs)
        if argv[:2] == ["sh", "-c"] and "squeue" in argv[-1]:
            run_dir.append(data_left(profile) != [])
        return result

    shell_router.run = routed
    record = run(SshEndpoint(profile), tmp_path / "out", poll_interval_s=0.01)
    assert record.overall_state is orch.RunStage.DONE
    assert run_dir == [True]
    scripts = [argv[-1] for argv in shell_router.launches if argv[0] == "ssh"]
    assert ["squeue" in script for script in scripts] == [False] * 3 + [True, False]
    assert "base64" in scripts[-1]
    assert (tmp_path / "state" / "scancel.calls").read_text() == f"--name=sb-{record.run_id}\n"
    assert data_left(profile) == []
