"""A deterministic launch-fault sweep: every launch of a few whole runs, an
exec or the upload's copy, is lost in turn, before it runs and after it has
run, and so is every pair of launches of one run, and each run must still
keep criterion 11's promises.

Each run with no fault or one fault must also end with the outcome that
tests/data/sweep_outcomes.json records for it: its final stage, the sorted
error classes of its failed batches and its number of result zips. After a
change that alters an outcome on purpose, rewrite the table with
`PYTHONPATH=src python -m tests.test_fault_sweep` and review the diff."""

import itertools
import json
import os

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
# The name of each fault a launch of lose_launch is given, by its ran.
FAULTS = {False: "lost-before", True: "lost-after", "empty": "empty", "cut": "cut"}
OUTCOMES = os.path.join(os.path.dirname(__file__), "data", "sweep_outcomes.json")
with open(OUTCOMES) as _table:
    EXPECTED = json.load(_table)


def cell(lose_launch):
    """The key of the outcome table for a run of no fault or one."""
    return " ".join(f"{k} {FAULTS[ran]}" for k, ran in lose_launch) or "none"


def outcome(record):
    """A run's final stage, the sorted error classes of its failed batches
    and its number of result zips."""
    return [record.overall_state.value,
            sorted({type(b.error).__name__ for b in record.batches if not b.result_zip}),
            sum(1 for b in record.batches if b.result_zip)]


def swept_cluster(name, profile, registry, workdir):
    """The named scenario's initialised cluster, which has run nothing of
    the run yet, its input items and its RunOptions overrides."""
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
    return cluster, orch.scan_input_dir(inputs), overrides


def swept_run(name, profile, registry, descriptor, workdir, lose_launch):
    """Run the named scenario on a FlakyLink that loses the launches of
    lose_launch, (k, ran) pairs, and check what no fault may break: once a
    teardown answered, no job is live and nothing is left under data/;
    until one does, the run journals the cleanup that failed; and a run
    journals a cleanup before its Retrieving row; and a run of no fault or
    one ends with the outcome the table records. Returns the link, whether
    a teardown answered and the run's (stage, detail) rows."""
    cluster, items, overrides = swept_cluster(name, profile, registry, workdir)
    link = FlakyLink(cluster, lose_launch=lose_launch)
    events = Events()
    retrieving = []  # how many commands had run when the Retrieving row came

    def listener(stage, detail):
        if stage == orch.RunStage.RETRIEVING.value:
            retrieving.append(len(cluster.ran))
        events(stage, detail)

    record = orch.run_workflow_batched(
        link, profile, registry, descriptor, "cellpose", {}, items, 2,
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
    stages = [stage for stage, _ in events]
    assert "cleanup" in stages[:stages.index(orch.RunStage.RETRIEVING.value)]
    if len(lose_launch) < 2:
        assert outcome(record) == EXPECTED[name][cell(lose_launch)]
    return link, answered, events


def test_the_outcome_table_holds_every_run_of_no_fault_or_one():
    assert {name: sorted(cells) for name, cells in EXPECTED.items()} == {
        name: sorted([cell(())] + [cell([(k, ran)]) for k in range(LAUNCHES[name])
                                   for ran in FAULTS])
        for name in SWEPT}


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_a_run_with_no_fault_makes_the_launches_swept(name, sample_profile_registry,
                                                      cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    link, answered, _ = swept_run(name, profile, registry, cellpose_descriptor, tmp_path, ())
    assert link.launches == LAUNCHES[name]
    assert answered


@pytest.mark.parametrize("name,k,ran", [
    (name, k, ran) for name in sorted(SWEPT) for k in range(LAUNCHES[name])
    for ran in (False, True)])
def test_a_lost_launch_keeps_every_run_safe(name, k, ran, sample_profile_registry,
                                            cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    link, answered, _ = swept_run(name, profile, registry, cellpose_descriptor, tmp_path,
                                  [(k, ran)])
    assert link.launches > k  # the launch was made, and lost
    assert answered  # one lost launch leaves a later teardown to answer


@pytest.mark.parametrize("name,k,answer", [
    (name, k, answer) for name in sorted(SWEPT) for k in range(LAUNCHES[name])
    for answer in ("empty", "cut")])
def test_an_empty_or_cut_answer_keeps_every_run_safe(name, k, answer, sample_profile_registry,
                                                     cellpose_descriptor, tmp_path):
    # Each launch after the upload's copy, sha256sum and mv is framed, and
    # an answer short of a marker reads as the answer lost after it ran; the
    # upload's answers read as what they say.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run(name, profile, registry, cellpose_descriptor,
                                       tmp_path / answer, [(k, answer)])
    assert link.launches > k
    assert answered
    if k >= 3:
        _, _, lost = swept_run(name, profile, registry, cellpose_descriptor, tmp_path / "lost",
                               [(k, True)])
        assert [stage for stage, _ in events] == [stage for stage, _ in lost]


@pytest.mark.parametrize("first,second", [
    ((k1, ran1), (k2, ran2))
    for k1, k2 in itertools.combinations(range(LAUNCHES["tiff"]), 2)
    for ran1 in (False, True) for ran2 in (False, True)])
def test_two_lost_launches_keep_the_tiff_run_safe(first, second, sample_profile_registry,
                                                  cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    _, answered, _ = swept_run("tiff", profile, registry, cellpose_descriptor, tmp_path,
                               [first, second])
    assert answered  # two lost launches leave a later teardown to answer


def test_a_lost_submission_answer_and_teardown_leave_a_second_teardown(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The submission runs but its answer is lost, so no job id is known,
    # and so is the answer of the teardown that _poll's close makes: the
    # close of the run's end makes another, which cancels the jobs.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run("tiff", profile, registry, cellpose_descriptor,
                                       tmp_path, [(3, True), (4, False)])
    assert link.launches == 6
    assert answered
    assert [detail if stage == "cleanup" else stage for stage, detail in events
            if stage in ("cancel", "cleanup", orch.RunStage.RETRIEVING.value)] == [
        "cancel", "failed", "Retrieving", "cancel", "removed=1"]


def test_a_run_whose_every_teardown_is_lost_journals_the_failed_cleanups(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The upload's copy is lost, so nothing is submitted, and so are both
    # teardown launches that follow it, of _poll's close and of the one in
    # the run's finally: no teardown answers.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run("tiff", profile, registry, cellpose_descriptor,
                                       tmp_path, [(0, False), (1, False), (2, False)])
    assert link.launches == 3
    assert not answered
    assert events.count(("cleanup", "failed")) == 2


@pytest.mark.parametrize("ran", [False, True])
def test_an_interrupt_while_polling_tears_the_run_down_without_fetching(
        ran, sample_profile_registry, cellpose_descriptor, tmp_path):
    # Launches 0-2 upload the archive, 3 submits, and 4 is the first poll,
    # while the job still runs: the interrupt goes through, and the next
    # launch cancels the run's jobs by name and removes its data, bringing
    # nothing back.
    profile, registry = sample_profile_registry
    cluster, items, overrides = swept_cluster("tiff", profile, registry, tmp_path)
    link = FlakyLink(cluster, lose_launch=[(4, ran)], lost_with=KeyboardInterrupt)
    commands = []
    sim_exec = cluster.sim_exec
    cluster.sim_exec = lambda command: commands.append(command) or sim_exec(command)
    cancelled = []  # how many commands had run when the cancel row came

    def listener(stage, detail):
        if stage == "cancel":
            cancelled.append(len(commands))

    with pytest.raises(KeyboardInterrupt):
        orch.run_workflow_batched(
            link, profile, registry, cellpose_descriptor, "cellpose", {}, items, 2,
            options=fast_options(**overrides), local_output_dir=str(tmp_path / "out"),
            listener=listener, run_id="stopped")
    assert link.launches == 6
    [mark] = cancelled  # one teardown
    teardown = commands[mark:]
    assert teardown[0][:2] == ["sh", "-c"]
    assert ["scancel", "--name=sb-stopped"] in teardown
    assert {"zip", "base64"}.isdisjoint(command[0] for command in teardown)
    assert cluster.jobs
    assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
    assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
            if path.startswith("/scratch/omero/data/")] == []


def _rewrite():
    """Write the outcome of every run of no fault or one to OUTCOMES."""
    import pathlib
    import tempfile

    from slurmbridge import config as config_mod
    from slurmbridge import descriptor as descriptor_mod
    from tests.conftest import CELLPOSE_DESCRIPTOR, SAMPLE_CONFIG

    profile, registry = config_mod.parse_config(SAMPLE_CONFIG)
    descriptor = descriptor_mod.parse_descriptor(json.dumps(CELLPOSE_DESCRIPTOR))
    table = {}
    for name in sorted(SWEPT):
        faults = [()] + [[(k, ran)] for k in range(LAUNCHES[name]) for ran in FAULTS]
        for lose_launch in faults:
            with tempfile.TemporaryDirectory() as workdir:
                cluster, items, overrides = swept_cluster(name, profile, registry,
                                                          pathlib.Path(workdir))
                record = orch.run_workflow_batched(
                    FlakyLink(cluster, lose_launch=lose_launch), profile, registry,
                    descriptor, "cellpose", {}, items, 2, options=fast_options(**overrides),
                    local_output_dir=os.path.join(workdir, "out"))
            table.setdefault(name, {})[cell(lose_launch)] = outcome(record)
    # One run to a line, so that a diff shows what changed.
    with open(OUTCOMES, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f" {json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in cells.items())
            + "\n }" for name, cells in table.items()) + "\n}\n")


if __name__ == "__main__":
    _rewrite()
