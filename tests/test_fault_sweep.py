"""A deterministic launch-fault sweep: every launch of a few whole runs, an
exec or the upload's copy, is broken in turn with each kind of fault that
FlakyLink's one fault list takes (lost before it runs or after it ran, or
answered empty or cut), every pair of launches of two runs is lost, and
each run must still keep criterion 11's promises.

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
from slurmbridge.errors import SlurmBridgeError
from slurmbridge.simslurm import FaultDirective, SimEndpoint
from slurmbridge.states import JobState
from tests import mutants
from tests.conftest import make_tiff_inputs, make_zarr_inputs
from tests.test_orchestrator import (
    FIRST_POLL,
    KINDS,
    Answer,
    Holding,
    LOST,
    SUBMISSION,
    UPLOAD_COPY,
    UPLOAD_MV,
    UPLOAD_SHA256SUM,
    Events,
    FlakyLink,
    RemovesOnlyEnded,
    fast_options,
)
from tests.test_run_golden import SCENARIOS

# name -> (input formats, RunOptions overrides, script whose job is forced
# FAILED). The first three are the golden scenarios of those names.
SWEPT = {name: (SCENARIOS[name][0], SCENARIOS[name][3], None)
         for name in ("tiff", "tiff-zarr", "deadline")}
SWEPT["failed-conversion"] = (("tiff", "zarr"), {}, "batch1/convert.sh")
# The launches each makes with no fault.
LAUNCHES = {"tiff": 8, "tiff-zarr": 9, "deadline": 6, "failed-conversion": 8}
OUTCOMES = os.path.join(os.path.dirname(__file__), "data", "sweep_outcomes.json")
with open(OUTCOMES) as _table:
    EXPECTED = json.load(_table)


def cell(faults):
    """The key of the outcome table for a run of no fault or one."""
    return " ".join(f"{k} {kind}" for k, kind in faults) or "none"


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


def swept_run(name, profile, registry, descriptor, workdir, faults):
    """Run the named scenario on a FlakyLink with faults, and check what
    no fault may break: once a teardown answered, no job is live and
    nothing is left under data/; until one does, the run journals the
    cleanup that failed; and a run journals a cleanup before its Retrieving
    row; and a run of no fault or one ends with the outcome the table
    records. Returns the link, whether a teardown answered and the run's
    (stage, detail) rows."""
    cluster, items, overrides = swept_cluster(name, profile, registry, workdir)
    link = FlakyLink(cluster, faults)
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
    if len(faults) < 2 and all(kind in KINDS for _, kind in faults):
        assert outcome(record) == EXPECTED[name][cell(faults)]
    return link, answered, events


def test_the_outcome_table_holds_every_run_of_no_fault_or_one():
    assert {name: sorted(cells) for name, cells in EXPECTED.items()} == {
        name: sorted([cell(())] + [cell([(k, kind)]) for k in range(LAUNCHES[name])
                                   for kind in KINDS])
        for name in SWEPT}


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_a_run_with_no_fault_makes_the_launches_swept(name, sample_profile_registry,
                                                      cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    link, answered, _ = swept_run(name, profile, registry, cellpose_descriptor, tmp_path, ())
    assert len(link.ran) == LAUNCHES[name]
    assert answered


def test_the_launches_that_faults_name_by_position(sample_profile_registry,
                                                  cellpose_descriptor, tmp_path):
    # A change in the order of a run's launches fails here, rather than
    # moving, unseen, every fault that names a launch by its position.
    profile, registry = sample_profile_registry
    link, _, _ = swept_run("tiff", profile, registry, cellpose_descriptor, tmp_path, ())
    assert [link.ran[k] for k in (UPLOAD_COPY, UPLOAD_SHA256SUM, UPLOAD_MV, SUBMISSION,
                                  FIRST_POLL)] == [
        [], ["sha256sum"], ["mv"], ["sh", "mkdir", "unzip", "sbatch", "rm"],
        ["sh", "squeue"]]


@pytest.mark.parametrize("name,k,ran", [
    (name, k, ran) for name in sorted(SWEPT) for k in range(LAUNCHES[name])
    for ran in (False, True)])
def test_a_lost_launch_keeps_every_run_safe(name, k, ran, sample_profile_registry,
                                            cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    link, answered, _ = swept_run(name, profile, registry, cellpose_descriptor, tmp_path,
                                  [(k, "lost-after" if ran else "lost-before")])
    assert len(link.ran) > k  # the launch was made, and lost
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
    assert len(link.ran) > k
    assert answered
    if k >= SUBMISSION:
        _, _, lost = swept_run(name, profile, registry, cellpose_descriptor, tmp_path / "lost",
                               [(k, "lost-after")])
        assert [stage for stage, _ in events] == [stage for stage, _ in lost]


@pytest.mark.parametrize("first,second", [
    ((k1, kind1), (k2, kind2))
    for k1, k2 in itertools.combinations(range(LAUNCHES["tiff"]), 2)
    for kind1 in LOST for kind2 in LOST])
def test_two_lost_launches_keep_the_tiff_run_safe(first, second, sample_profile_registry,
                                                  cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    _, answered, _ = swept_run("tiff", profile, registry, cellpose_descriptor, tmp_path,
                               [first, second])
    assert answered  # two lost launches leave a later teardown to answer


# Every pair of the deadline run's launches, launch 6 (the launch that ends
# it, made again) too, each lost either way: 84 runs.
@pytest.mark.parametrize("first,second", [
    ((k1, kind1), (k2, kind2))
    for k1, k2 in itertools.combinations(range(LAUNCHES["deadline"] + 1), 2)
    for kind1 in LOST for kind2 in LOST])
def test_two_lost_launches_keep_the_deadline_run_safe(first, second, sample_profile_registry,
                                                      cellpose_descriptor, tmp_path):
    profile, registry = sample_profile_registry
    _, answered, _ = swept_run("deadline", profile, registry, cellpose_descriptor, tmp_path,
                               [first, second])
    assert answered


def test_two_lost_endings_of_a_give_up_leave_a_third_teardown(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The deadline run gives up after its first poll, launch 4, while its
    # jobs run. The launch that ends it, 5, is lost, and so is the one
    # _poll's close makes again, 6: the third, 7, answers, cancels the jobs
    # and removes the run data.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run("deadline", profile, registry, cellpose_descriptor,
                                       tmp_path, [(5, "lost-before"), (6, "lost-before")])
    assert answered
    assert len(link.ran) == 8
    assert events.count(("cleanup", "failed")) == 2


def test_a_lost_submission_answer_and_teardown_leave_a_second_teardown(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The submission runs but its answer is lost, and so is the answer of
    # the launch that ends the deadline run after its first poll, which
    # found the jobs queued: _poll's close makes that launch again, which
    # cancels the jobs by name.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run("deadline", profile, registry, cellpose_descriptor,
                                       tmp_path, [(SUBMISSION, "lost-after"),
                                                  (FIRST_POLL + 1, "lost-before")])
    assert len(link.ran) == 7
    assert answered
    assert [detail if stage == "cleanup" else stage for stage, detail in events
            if stage in ("cancel", "cleanup", orch.RunStage.RETRIEVING.value)] == [
        "cancel", "failed", "cancel", "removed=1", "Retrieving"]


def test_a_run_whose_every_teardown_is_lost_journals_the_failed_cleanups(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The upload's copy is lost, so nothing is submitted, and so are all
    # six teardown launches that follow it, three of _poll's close and
    # three of the one in the run's finally: no teardown answers.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run("tiff", profile, registry, cellpose_descriptor,
                                       tmp_path, [(k, "lost-before") for k in range(7)])
    assert len(link.ran) == 7
    assert not answered
    assert events.count(("cleanup", "failed")) == 6


def test_an_unreadable_accounting_line_fails_the_jobs_it_hides(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The sacct of the launch that ends the tiff run answers a line no job
    # reads as: its one job is given up with UnparseableJobId, and the run
    # ends at a journaled stage.
    profile, registry = sample_profile_registry
    _, answered, events = swept_run("tiff", profile, registry, cellpose_descriptor, tmp_path,
                                    [("sacct", Answer("sacct", ["1+0|/scratch|COMPLETED"]))])
    assert answered
    assert events[-1] == ("Failed", "unreadable accounting line: '1+0|/scratch|COMPLETED'")


def test_a_job_accounting_never_lists_fails_after_the_round_that_tore_the_run_down(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # Every sacct answers nothing: the launch that ends the tiff run, at
    # t=20, lists no job, and the next round's sacct, alone, fails the
    # batch, though later answers would list the job.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run(
        "tiff", profile, registry, cellpose_descriptor, tmp_path,
        [(Holding({"sacct"}, n), Answer("sacct", [])) for n in range(8)])
    assert answered
    assert [ran.count("sacct") for ran in link.ran] == [0] * 7 + [1, 1]
    assert events[-1] == ("Failed", "workflow job of batch 0 is neither queued nor in accounting")


def test_three_polls_lost_in_a_row_give_up_and_cancel_the_job(
        sample_profile_registry, cellpose_descriptor, tmp_path):
    # The tiff run's polls at t=5, 10 and 15 are lost while its job runs to
    # t=20: the third gives up, and the launch that ends the run cancels the
    # job and fails its batch.
    profile, registry = sample_profile_registry
    link, answered, events = swept_run("tiff", profile, registry, cellpose_descriptor,
                                       tmp_path, [(FIRST_POLL + k, "lost-before")
                                                  for k in range(3)])
    assert link.fired == link.faults
    assert answered
    assert [stage for stage, _ in events].count("cancel") == 1
    assert events[-1][0] == orch.RunStage.FAILED.value


@pytest.mark.parametrize("ran", [False, True])
def test_an_interrupt_while_polling_tears_the_run_down_without_fetching(
        ran, sample_profile_registry, cellpose_descriptor, tmp_path):
    # Launches 0-2 upload the archive, 3 submits, and 4 is the first poll,
    # while the job still runs: the interrupt goes through, and the next
    # launch cancels the run's jobs by name and removes its data, bringing
    # nothing back.
    profile, registry = sample_profile_registry
    cluster, items, overrides = swept_cluster("tiff", profile, registry, tmp_path)
    link = FlakyLink(cluster, [(FIRST_POLL, "lost-after" if ran else "lost-before")],
                     lost_with=KeyboardInterrupt)
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
    assert len(link.ran) == 6
    [mark] = cancelled  # one teardown
    teardown = commands[mark:]
    assert teardown[0][:2] == ["sh", "-c"]
    assert ["scancel", "--name=sb-stopped"] in teardown
    assert {"zip", "base64"}.isdisjoint(command[0] for command in teardown)
    assert cluster.jobs
    assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
    assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
            if path.startswith("/scratch/omero/data/")] == []


# Each known mutant and the runs of this sweep that catch it: a test of
# this file and its arguments other than fixtures.
CATCHES = {
    "unguarded-poll": [(test_a_run_with_no_fault_makes_the_launches_swept, {"name": "tiff"})],
    "poll-raises": [(test_three_polls_lost_in_a_row_give_up_and_cancel_the_job, {})],
    "one-teardown": [(test_two_lost_endings_of_a_give_up_leave_a_third_teardown, {})],
    "uncancelled-ending": [(test_three_polls_lost_in_a_row_give_up_and_cancel_the_job, {})],
    "int-of-unreadable-line": [(test_an_unreadable_accounting_line_fails_the_jobs_it_hides, {})],
    "unlisted-polled-for-ever": [
        (test_a_job_accounting_never_lists_fails_after_the_round_that_tore_the_run_down, {})],
    "lost-submission-fails-all": [
        (test_a_lost_launch_keeps_every_run_safe, {"name": name, "k": SUBMISSION, "ran": True})
        for name in sorted(SWEPT)],
}


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_the_sweep_catches_each_known_mutant(name, sample_profile_registry,
                                             cellpose_descriptor, tmp_path, monkeypatch):
    # Each run of the subset fails under the mutant, 3 times out of 3; the
    # same runs pass unmutated, as tests of their own.
    for attempt in range(3):
        for test, args in CATCHES[name]:
            with monkeypatch.context() as patch:
                mutants.mutate(patch, name)
                with pytest.raises((AssertionError, SlurmBridgeError, ValueError)):
                    test(sample_profile_registry=sample_profile_registry,
                         cellpose_descriptor=cellpose_descriptor,
                         tmp_path=tmp_path / f"{attempt}-{test.__name__}", **args)


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
        for faults in [()] + [[(k, kind)] for k in range(LAUNCHES[name]) for kind in KINDS]:
            with tempfile.TemporaryDirectory() as workdir:
                cluster, items, overrides = swept_cluster(name, profile, registry,
                                                          pathlib.Path(workdir))
                record = orch.run_workflow_batched(
                    FlakyLink(cluster, faults), profile, registry,
                    descriptor, "cellpose", {}, items, 2, options=fast_options(**overrides),
                    local_output_dir=os.path.join(workdir, "out"))
            table.setdefault(name, {})[cell(faults)] = outcome(record)
    # One run to a line, so that a diff shows what changed.
    with open(OUTCOMES, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f" {json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in cells.items())
            + "\n }" for name, cells in table.items()) + "\n}\n")


if __name__ == "__main__":
    _rewrite()
