"""A deterministic launch-fault sweep: every launch of a few whole runs, an
exec or the upload's copy, is lost in turn, before it runs and after it has
run, and so is every pair of launches of one run, and each run must still
keep criterion 11's promises."""

import itertools

import pytest

from slurmbridge import orchestrator as orch
from slurmbridge import slurm
from slurmbridge.simslurm import FaultDirective, SimEndpoint
from slurmbridge.states import JobState
from tests.conftest import make_tiff_inputs, make_zarr_inputs
from tests.test_orchestrator import Events, FlakyLink, RemovesOnlyEnded, fast_options
from tests.test_run_golden import SCENARIOS

# name -> (input formats, RunOptions overrides, script whose job is forced
# FAILED). The first three are the golden scenarios of those names.
SWEPT = {name: (SCENARIOS[name][0], SCENARIOS[name][3], None)
         for name in ("tiff", "tiff-zarr", "deadline")}
SWEPT["failed-conversion"] = (("tiff", "zarr"), {}, "batch1/convert.sh")
# The launches each makes with no fault.
LAUNCHES = {"tiff": 8, "tiff-zarr": 9, "deadline": 6, "failed-conversion": 8}


def swept_run(name, profile, registry, descriptor, workdir, lose_launch):
    """Run the named scenario on a FlakyLink that loses the launches of
    lose_launch, (k, ran) pairs, and check what no fault may break: once a
    teardown answered, no job is live and nothing is left under data/;
    until one does, the run journals the cleanup that failed. Returns the
    link and whether a teardown answered."""
    formats, overrides, failed = SWEPT[name]
    inputs = str(workdir / "inputs")
    if "tiff" in formats:
        make_tiff_inputs(inputs, 2)
    if "zarr" in formats:
        make_zarr_inputs(inputs, 2)
    cluster = RemovesOnlyEnded()
    cluster.inject_fault(FaultDirective(script_substring="job.sh", duration_s=20))
    if failed:
        cluster.inject_fault(FaultDirective(script_substring=failed,
                                            forced_state=JobState.FAILED))
    slurm.init_environment(SimEndpoint(cluster), profile, registry)
    cluster.ran.clear()
    link = FlakyLink(cluster, lose_launch=lose_launch)
    events = Events()
    retrieving = []  # how many commands had run when the Retrieving row came

    def listener(stage, detail):
        if stage == orch.RunStage.RETRIEVING.value:
            retrieving.append(len(cluster.ran))
        events(stage, detail)

    record = orch.run_workflow_batched(
        link, profile, registry, descriptor, "cellpose", {}, orch.scan_input_dir(inputs), 2,
        options=fast_options(**overrides), local_output_dir=str(workdir / "out"),
        listener=listener)
    assert events[-1][0] == record.overall_state.value
    assert record.overall_state in orch.TERMINAL_STAGES
    assert cluster.early == []
    answered = any(stage == "cleanup" and detail.startswith("removed=")
                   for stage, detail in events)
    if answered:
        assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
        assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
                if path.startswith("/scratch/omero/data/")] == []
    else:
        assert ("cleanup", "failed") in events
    # The launch that brings the results back comes before the Retrieving
    # row: the stage only reads the bundle.
    assert {"zip", "base64"}.isdisjoint(cluster.ran[retrieving[0]:])
    return link, answered


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_a_run_with_no_fault_makes_the_launches_swept(name, sample_profile_registry,
                                                      cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    link, answered = swept_run(name, profile, registry, cellpose_descriptor, tmp_path, ())
    assert link.launches == LAUNCHES[name]
    assert answered


@pytest.mark.parametrize("name,k,ran", [
    (name, k, ran) for name in sorted(SWEPT) for k in range(LAUNCHES[name])
    for ran in (False, True)])
def test_a_lost_launch_keeps_every_run_safe(name, k, ran, sample_profile_registry,
                                            cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    link, answered = swept_run(name, profile, registry, cellpose_descriptor, tmp_path,
                               [(k, ran)])
    assert link.launches > k  # the launch was made, and lost
    assert answered  # one lost launch leaves a later teardown to answer


@pytest.mark.parametrize("first,second", [
    ((k1, ran1), (k2, ran2))
    for k1, k2 in itertools.combinations(range(LAUNCHES["tiff"]), 2)
    for ran1 in (False, True) for ran2 in (False, True)])
def test_two_lost_launches_keep_the_tiff_run_safe(first, second, sample_profile_registry,
                                                  cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    swept_run("tiff", profile, registry, cellpose_descriptor, tmp_path, [first, second])


def test_a_run_whose_only_teardown_is_lost_journals_the_failed_cleanup(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The upload's copy is lost, so nothing is submitted, and so is the
    # teardown launch that follows it: no teardown answers.
    profile, registry = sample_profile_registry
    link, answered = swept_run("tiff", profile, registry, cellpose_descriptor, tmp_path,
                               [(0, False), (1, False)])
    assert link.launches == 2
    assert not answered
