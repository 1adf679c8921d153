import base64
import dataclasses
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import zipfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slurmbridge import slurm
from slurmbridge.errors import (
    AccountingUnavailable,
    ChecksumMismatch,
    ConnectionLost,
    EmptyOutput,
    LogMissing,
    ScratchUnwritable,
    SubmitRejected,
    TransportError,
    UnknownState,
    UnparseableJobId,
)
from slurmbridge.simslurm import FaultDirective, SimCluster, SimEndpoint
from slurmbridge.states import JobState, aggregate_array_states
from slurmbridge.transport import DEFAULT_DEADLINE_S, ExecResult, unframe_commands
from tests.conftest import traced_peak
from tests.test_simslurm import submit_script
from tests.test_transport import ssh_endpoint


@pytest.fixture
def env(sample_profile_registry):
    profile, registry = sample_profile_registry
    endpoint = SimEndpoint(SimCluster())
    return endpoint, profile, registry


WORKFLOW_SCRIPT = """\
#!/bin/bash
#SBATCH --mem=1024
#SBATCH --cpus-per-task=1
#SBATCH --time=00:30:00
#SBATCH --output=/scratch/omero/logs/omero-job-%j.log
export IN_PATH="/scratch/omero/data/r1/in"
export OUT_PATH="/scratch/omero/data/r1/out"
true
"""


def prepare_run_dirs(endpoint):
    for path in ("/scratch/omero/logs", "/scratch/omero/data/r1/in",
                 "/scratch/omero/data/r1/out"):
        endpoint.make_dirs(path)
    endpoint.cluster.fs.write("/scratch/omero/data/r1/in/a.tiff", b"a")
    endpoint.cluster.fs.write("/scratch/omero/data/r1/in/b.tiff", b"b")


def submit_workflow(endpoint, script=WORKFLOW_SCRIPT, path="/scratch/omero/data/r1/job.sh"):
    """Submit one script as a job named sb-test; returns its job id, the
    simulator's last, or raises what rejected it."""
    endpoint.cluster.fs.make_dirs(os.path.dirname(path))
    endpoint.cluster.fs.write(path, script.encode())
    [outcome] = slurm.submit_job(endpoint, [(path, None)], "sb-test")
    if isinstance(outcome, Exception):
        raise outcome
    assert outcome is True
    return endpoint.cluster.next_job_id - 1


def polled(endpoint, name="sb-test"):
    """job id -> state of each job that poll_jobs lists under name."""
    return dict(slurm.poll_jobs(endpoint, name, 0).values())


def answering(stdout):
    """An exec that answers every command with stdout, as sacct would."""
    return lambda *a, **k: ExecResult(0, stdout, "")


def record_launches(endpoint):
    """Make endpoint record the command of each exec; returns the list."""
    launches = []
    exec_one = endpoint.exec

    def recording(command, timeout=DEFAULT_DEADLINE_S):
        launches.append(command)
        return exec_one(command, timeout)

    endpoint.exec = recording
    return launches


# Ways a base64 stream can come back damaged: one character flipped to
# another of its alphabet, cut in half, or holding a character outside the
# alphabet or outside ASCII.
DAMAGES = {
    "flipped": lambda text: text[:9] + ("B" if text[9] == "A" else "A") + text[10:],
    "truncated": lambda text: text[:len(text) // 2],
    "not-base64": lambda text: text[:12] + "!" + text[13:],
    "not-ascii": lambda text: text[:12] + "\u00e9" + text[13:],
}


class DamagesStream(SimCluster):
    """Passes the stdout of every base64 through damage."""

    def __init__(self, damage):
        super().__init__()
        self.damage = damage

    def sim_exec(self, command):
        result = super().sim_exec(command)
        if command[0] == "base64":
            return dataclasses.replace(result, stdout=self.damage(result.stdout))
        return result


def fetch_logs(endpoint, logs_dir):
    """The logs dir as one archive, brought back the way a run does it."""
    _, (_, bundle, _) = slurm.fetch_results(endpoint, "sb-test", 0, [logs_dir],
                                            "/scratch/logs.zip")
    return zipfile.ZipFile(io.BytesIO(bundle))


class TestInitEnvironment:
    def test_empty_registry_creates_layout(self, sample_profile_registry):
        import dataclasses

        profile, _ = sample_profile_registry
        profile = dataclasses.replace(profile, zarr_to_tiff=None)
        endpoint = SimEndpoint(SimCluster())
        from slurmbridge.config import WorkflowRegistry

        report = slurm.init_environment(endpoint, profile, WorkflowRegistry(entries={}))
        assert len(report.created_dirs) == 4
        assert report.pulled_images == []
        for name in slurm.MANAGED_DIRS:
            assert endpoint.path_exists(f"/scratch/omero/{name}")

    def test_registry_pull_naming(self, env):
        endpoint, profile, registry = env
        report = slurm.init_environment(endpoint, profile, registry)
        assert ("cellpose",
                "/scratch/omero/singularity_images/cellpose_v1.2.9.sif") \
            in report.pulled_images
        assert endpoint.path_exists(
            "/scratch/omero/singularity_images/cellpose_v1.2.9.sif")

    def test_idempotent_snapshot_and_zero_pulls(self, env):
        # Oracle: compare remote tree snapshots before/after the second call.
        endpoint, profile, registry = env
        slurm.init_environment(endpoint, profile, registry)
        first = endpoint.cluster.fs.snapshot()
        report = slurm.init_environment(endpoint, profile, registry)
        assert report.refreshed is True
        assert report.pulled_images == []
        assert endpoint.cluster.fs.snapshot() == first

    def test_partial_pull_failure_retains_others(self, env):
        endpoint, profile, registry = env
        endpoint.cluster.failing_pulls.add(
            "docker://demo/w_nucleisegmentation-cellpose:v1.2.9")
        report = slurm.init_environment(endpoint, profile, registry)
        assert [name for name, _ in report.failures] == ["cellpose"]
        # Converter image still provisioned.
        assert endpoint.path_exists(
            "/scratch/omero/singularity_images/convert_zarr_to_tiff.sif")

    def test_converter_pull_failure_reported_as_pull_failed(self, env):
        endpoint, profile, registry = env
        endpoint.cluster.failing_pulls.add("docker://demo/converter-zarr-tiff:v1.0.0")
        report = slurm.init_environment(endpoint, profile, registry)
        assert report.failures == [(
            "converter zarr->tiff",
            "image pull failed for 'converter zarr->tiff' (exit 255): "
            "FATAL: unable to pull docker://demo/converter-zarr-tiff:v1.0.0",
        )]

    def test_one_probe_launch_plus_one_per_pull(self, env):
        endpoint, profile, registry = env
        launches = record_launches(endpoint)
        slurm.init_environment(endpoint, profile, registry)
        assert [command[:2] for command in launches] == [["sh", "-c"]] * 3
        assert [[argv[:2] for argv in unframe_commands(command)[1]]
                for command in launches[1:]] == [[["singularity", "pull"]]] * 2
        launches.clear()
        report = slurm.init_environment(endpoint, profile, registry)
        assert [command[0] for command in launches] == ["sh"]
        assert report.refreshed

    def test_unwritable_scratch(self, env):
        endpoint, profile, registry = env
        endpoint.cluster.fs.make_dirs("/scratch/omero")
        endpoint.cluster.fs.write("/scratch/omero/logs", b"a file")
        with pytest.raises(ScratchUnwritable):
            slurm.init_environment(endpoint, profile, registry)

    def test_lost_link_during_pulls_reported_per_image(self, env):
        class DropsPulls(SimEndpoint):
            def exec(self, command, timeout=DEFAULT_DEADLINE_S):
                if unframe_commands(command)[1][0][0] == "singularity":
                    raise ConnectionLost("link dropped")
                return super().exec(command, timeout)

        _, profile, registry = env
        report = slurm.init_environment(DropsPulls(SimCluster()), profile, registry)
        assert report.failures == [("cellpose", "link dropped"),
                                   ("converter zarr->tiff", "link dropped")]
        assert report.pulled_images == []


class TestSubmitJob:
    def test_submit_parses_job_id(self, sim_endpoint):
        # The one job id read is the one the shell hands from the first
        # sbatch's answer to the second's dependency; the client reads only
        # whether each sbatch exited 0. Each job works in its script's dir,
        # by which a run finds it.
        prepare_run_dirs(sim_endpoint)
        cluster = sim_endpoint.cluster
        for name in ("convert", "job"):
            cluster.fs.write(f"/scratch/omero/data/r1/{name}.sh", WORKFLOW_SCRIPT.encode())
        assert slurm.submit_job(sim_endpoint, [("/scratch/omero/data/r1/convert.sh", None),
                                               ("/scratch/omero/data/r1/job.sh", 0)],
                                "sb-test") == [True, True]
        assert [(job.dependency, job.work_dir) for job in cluster.jobs.values()] == [
            (None, "/scratch/omero/data/r1"), (1, "/scratch/omero/data/r1")]

    def test_submit_rejected(self, sim_endpoint, monkeypatch):
        prepare_run_dirs(sim_endpoint)
        from slurmbridge.transport import ExecResult

        monkeypatch.setattr(
            sim_endpoint, "exec_many",
            lambda *a, **k: [ExecResult(1, "", "sbatch: error: Invalid partition\n")],
        )
        with pytest.raises(SubmitRejected):
            submit_workflow(sim_endpoint)

    def test_unparseable_job_id(self, sim_endpoint, monkeypatch):
        # No sbatch answer is parsed: one that names no job id but exited 0
        # is a submission.
        prepare_run_dirs(sim_endpoint)
        monkeypatch.setattr(
            sim_endpoint, "exec_many", lambda *a, **k: [ExecResult(0, "weird output\n", "")]
        )
        assert slurm.submit_job(sim_endpoint, [("/scratch/omero/data/r1/job.sh", None)],
                                "sb-test") == [True]

    def test_every_script_in_one_launch(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        cluster = sim_endpoint.cluster
        paths = [f"/scratch/omero/data/r1/{name}.sh" for name in ("a", "b", "c")]
        for path in paths[:2]:
            cluster.fs.write(path, WORKFLOW_SCRIPT.encode())
        launches = record_launches(sim_endpoint)
        # The third script waits for the first's job, the fourth for the
        # second's, which sbatch refuses, so the fourth is not submitted.
        first, missing, second, held = slurm.submit_job(
            sim_endpoint, [(paths[0], None), (paths[2], None),
                           (paths[1], 0), (paths[0], 1)], "sb-r1")
        assert len(launches) == 1
        assert isinstance(missing, SubmitRejected)
        assert held is None
        assert (first, second) == (True, True)
        assert [(job.name, job.dependency, job.work_dir) for job in cluster.jobs.values()] == [
            ("sb-r1", None, "/scratch/omero/data/r1"), ("sb-r1", 1, "/scratch/omero/data/r1")]

    def test_scripts_go_in_only_after_every_setup_command_exited_0(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        path = "/scratch/omero/data/r1/job.sh"
        sim_endpoint.cluster.fs.write(path, WORKFLOW_SCRIPT.encode())
        launches = record_launches(sim_endpoint)
        made, held, refused, not_run = slurm.submit_job(
            sim_endpoint, [(path, None), (path, None)], "sb-r1",
            setup=[["mkdir", "-p", "/scratch/omero/data/r1/x"],
                   ["test", "-e", "/scratch/omero/data/r1/missing"]])
        assert (made.exit_code, held.exit_code) == (0, 1)
        assert (refused, not_run) == (None, None)
        assert sim_endpoint.cluster.jobs == {}
        made, submitted = slurm.submit_job(
            sim_endpoint, [(path, None)], "sb-r1", setup=[["test", "-e", path]])
        assert made.ok and submitted is True and list(sim_endpoint.cluster.jobs) == [1]
        assert len(launches) == 2

    def test_array_submission_single_parent_handle(self, sim_endpoint):
        cluster = sim_endpoint.cluster
        job_id = submit_script(cluster, "/scratch/arr.sh", array="0-3", duration=5,
                               options=["--job-name=sb-test", "--chdir=/scratch/b0"])
        # Oracle: accounting keeps the 4 pending tasks in one record, as
        # Slurm keeps them unsplit, and the client folds it into the parent.
        result = cluster.sim_exec(["sacct", "-n", "-P", "-X", "--name=sb-test",
                                   "-o", "JobID,WorkDir,State"])
        assert result.stdout == f"{job_id}_[0-3]|/scratch/b0|PENDING\n"
        assert slurm.poll_jobs(sim_endpoint, "sb-test", 0) == {
            ("/scratch/b0", "conversion"): (job_id, JobState.PENDING)}


# Task states of one array: any mix, or tasks that no longer pend followed by
# any number that do.
_SETTLED = [state for state in JobState if state is not JobState.PENDING]
_TASK_STATES = st.one_of(
    st.lists(st.sampled_from(list(JobState)), min_size=1, max_size=10),
    st.builds(lambda head, tail: head + [JobState.PENDING] * tail,
              st.lists(st.sampled_from(_SETTLED), max_size=6), st.integers(0, 6)).filter(bool))


@settings(max_examples=150, deadline=None)
@example(states=[JobState.PENDING] * 4, first=0)
@example(states=[JobState.COMPLETED, JobState.RUNNING, JobState.COMPLETED], first=2)
@example(states=[JobState.FAILED, JobState.PENDING, JobState.RUNNING, JobState.PENDING], first=1)
@given(states=_TASK_STATES, first=st.integers(0, 3))
def test_array_record_folds_into_the_parent_state(states, first):
    """poll_jobs over the simulator's sacct output gives an array the state
    that aggregate_array_states gives its task states, whichever of them
    pend: sacct prints each task that does not pend, and those that do as
    one `<id>_[<indices>]` record, each run of indices as <lo>-<hi>."""
    cluster = SimCluster()
    job_id = submit_script(cluster, "/scratch/arr.sh", options=["--job-name=sb-test"],
                           array=f"{first}-{first + len(states) - 1}")
    for task, state in zip(cluster.jobs[job_id].tasks, states):
        task.state = state
    cluster._index_jobs()
    assert polled(SimEndpoint(cluster)) == {job_id: aggregate_array_states(states)}
    lines = [line.replace("|/|", "|") for line in cluster.sim_exec(
        ["sacct", "-n", "-P", "-X", "--name=sb-test", "-S", "now-86400",
         "-o", "JobID,WorkDir,State"]).stdout.splitlines()]
    pending = [first + k for k, state in enumerate(states) if state is JobState.PENDING]
    assert len(lines) == len(states) - len(pending) + bool(pending)
    if pending:
        runs = [[k for _, k in run] for _, run in itertools.groupby(
            enumerate(pending), lambda pair: pair[1] - pair[0])]
        assert lines[-1] == f"{job_id}_[" + ",".join(
            f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]) for run in runs) + "]|PENDING"


class TestPollJobs:
    def test_single_states(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        submit_workflow(sim_endpoint)
        assert polled(sim_endpoint) == {1: JobState.PENDING}
        sim_endpoint.cluster.advance(1)
        assert polled(sim_endpoint) == {1: JobState.RUNNING}
        sim_endpoint.cluster.advance(60)
        assert polled(sim_endpoint) == {1: JobState.COMPLETED}

    def test_single_exec_per_poll(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        for i in range(5):
            submit_workflow(sim_endpoint, path=f"/scratch/omero/data/r{i}/job.sh")
        calls = record_launches(sim_endpoint)
        assert len(polled(sim_endpoint)) == 5
        assert calls == [["sacct", "-n", "-P", "-X", "--name=sb-test", "-S", "now-86400",
                          "-o", "JobID,WorkDir,State"]]

    def test_array_aggregation_failed(self, sim_endpoint):
        cluster = sim_endpoint.cluster
        cluster.inject_fault(FaultDirective(script_substring="arr",
                                            forced_state=JobState.FAILED))
        job_id = submit_script(cluster, "/scratch/arr.sh", array="0-2", duration=5,
                               options=["--job-name=sb-test"])
        cluster.advance(30)
        assert polled(sim_endpoint) == {job_id: JobState.FAILED}

    def test_unknown_state_token(self, sim_endpoint, monkeypatch):
        monkeypatch.setattr(sim_endpoint, "exec", answering("1|/b0|WOBBLY\n2|/b1|RUNNING\n"))
        # The unmapped token costs its own job only.
        jobs = slurm.poll_jobs(sim_endpoint, "sb-test", 0)
        job_id, state = jobs["/b0", "workflow"]
        assert job_id == 1 and isinstance(state, UnknownState) and state.token == "WOBBLY"
        assert jobs["/b1", "workflow"] == (2, JobState.RUNNING)

    @pytest.mark.parametrize("line", ["1+0|COMPLETED", "1.batch|COMPLETED", "abc|RUNNING",
                                      "1_|PENDING", "RUNNING", "1+0|/b1|COMPLETED",
                                      "1.batch|/b1|COMPLETED", "abc|/b1|RUNNING",
                                      "1_|/b1|PENDING"])
    def test_unreadable_line_gives_up(self, sim_endpoint, monkeypatch, line):
        # The line might be any job's: it is kept under None, as the state
        # of every job no other line lists, UnparseableJobId; the job read
        # keeps its state.
        monkeypatch.setattr(sim_endpoint, "exec", answering(f"1|/b0|RUNNING\n{line}\n"))
        jobs = slurm.poll_jobs(sim_endpoint, "sb-test", 0)
        assert set(jobs) == {("/b0", "workflow"), None}
        assert jobs["/b0", "workflow"] == (1, JobState.RUNNING)
        job_id, state = jobs[None]
        assert job_id is None and isinstance(state, UnparseableJobId) and line in str(state)

    def test_an_unmapped_task_token_costs_its_array_only(self, sim_endpoint, monkeypatch):
        answer = "1_0|/b|COMPLETED\n1_1|/b|WOBBLY\n1_[2-3]|/b|PENDING\n2|/b|COMPLETED\n"
        monkeypatch.setattr(sim_endpoint, "exec", answering(answer))
        jobs = slurm.poll_jobs(sim_endpoint, "sb-test", 0)
        assert isinstance(jobs["/b", "conversion"][1], UnknownState)
        assert jobs["/b", "conversion"][1].token == "WOBBLY"
        assert jobs["/b", "workflow"] == (2, JobState.COMPLETED)

    def test_lines_of_jobs_not_asked_about_are_ignored(self, sim_endpoint, monkeypatch):
        # The lines of other jobs change nothing of a job's: each job listed
        # is keyed by its work dir, every character up to the last '|', and
        # its kind; a blank line is no unreadable one.
        answer = ("2|/a|b|WOBBLY\n1_0|/b0|COMPLETED\n1_[1-3,5%2]|/b0|PENDING\n"
                  "12_4|/b1|FAILED\n\n")
        monkeypatch.setattr(sim_endpoint, "exec", answering(answer))
        jobs = slurm.poll_jobs(sim_endpoint, "sb-test", 0)
        assert set(jobs) == {("/a|b", "workflow"), ("/b0", "conversion"), ("/b1", "conversion")}
        assert jobs["/b0", "conversion"] == (1, JobState.RUNNING)
        assert jobs["/b1", "conversion"] == (12, JobState.FAILED)

    @pytest.mark.parametrize("token, state", [
        ("PENDING", JobState.PENDING),
        ("REQUEUED", JobState.PENDING),
        ("RUNNING", JobState.RUNNING),
        ("COMPLETING", JobState.RUNNING),
        ("CONFIGURING", JobState.RUNNING),
        ("RESIZING", JobState.RUNNING),
        ("SUSPENDED", JobState.RUNNING),
        ("COMPLETED", JobState.COMPLETED),
        ("FAILED", JobState.FAILED),
        ("BOOT_FAIL", JobState.FAILED),
        ("NODE_FAIL", JobState.FAILED),
        ("OUT_OF_MEMORY", JobState.FAILED),
        ("PREEMPTED", JobState.FAILED),
        ("CANCELLED", JobState.CANCELLED),
        ("CANCELLED by 1000", JobState.CANCELLED),
        ("REVOKED", JobState.CANCELLED),
        ("TIMEOUT", JobState.TIMEOUT),
        ("DEADLINE", JobState.TIMEOUT),
    ])
    def test_every_sacct_state_code_maps(self, sim_endpoint, monkeypatch, token, state):
        monkeypatch.setattr(sim_endpoint, "exec", answering(f"1|/b0|{token}\n"))
        assert polled(sim_endpoint) == {1: state}

    def test_accounting_unavailable_on_exec_failure(self, sim_endpoint, monkeypatch):
        def boom(*a, **k):
            raise ConnectionLost("gone")

        monkeypatch.setattr(sim_endpoint, "exec", boom)
        with pytest.raises(AccountingUnavailable):
            polled(sim_endpoint)


class TestQueuedIds:
    def test_only_a_plain_id_is_a_queued_workflow_job(self):
        # `<id>_<k>` and `<id>_[<ranges>]` are records of conversion arrays.
        assert slurm.workflow_queued(ExecResult(1, "8_3\n8_[4-9%2]\n12\n", ""))
        assert slurm.workflow_queued(ExecResult(1, "7", ""))
        assert not slurm.workflow_queued(ExecResult(1, "8_3\n8_[4-9%2]\n", ""))
        assert not slurm.workflow_queued(ExecResult(1, "8_[0,2-3]", ""))

    @pytest.mark.parametrize("stdout", ["", "7\nslurm_load_jobs error", "7+0", "8_",
                                        "7|/b0\nslurm_load_jobs error", "7+0|/b0", "8_|/b0"])
    def test_a_guard_that_lists_no_job_id_is_a_failed_squeue(self, stdout):
        with pytest.raises(AccountingUnavailable) as info:
            slurm.workflow_queued(ExecResult(1, stdout, "squeue: error: down\n"))
        assert "squeue: error: down" in str(info.value)


class TestCancel:
    def test_cancel_pending_then_polls_cancelled(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        submit_workflow(sim_endpoint)
        slurm.cleanup_run(sim_endpoint, [], cancel="sb-test")
        assert polled(sim_endpoint) == {1: JobState.CANCELLED}

    def test_cancel_completed_is_noop(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        submit_workflow(sim_endpoint)
        sim_endpoint.cluster.advance(100)
        slurm.cleanup_run(sim_endpoint, [], cancel="sb-test")
        assert polled(sim_endpoint) == {1: JobState.COMPLETED}

    def test_cancel_named_reaches_unseen_jobs(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        for k in range(2):
            sim_endpoint.cluster.fs.make_dirs(f"/scratch/omero/data/r{k}")
            sim_endpoint.cluster.fs.write(f"/scratch/omero/data/r{k}/job.sh",
                                          WORKFLOW_SCRIPT.encode())
        slurm.submit_job(sim_endpoint, [(f"/scratch/omero/data/r{k}/job.sh", None)
                                        for k in range(2)], "sb-r1")
        sim_endpoint.cluster.advance(1)
        slurm.cleanup_run(sim_endpoint, [], cancel="sb-r1")
        assert polled(sim_endpoint, "sb-r1") == {1: JobState.CANCELLED, 2: JobState.CANCELLED}

    def test_cancel_running_array_parent(self, sim_endpoint):
        cluster = sim_endpoint.cluster
        job_id = submit_script(cluster, "/scratch/arr.sh", array="0-2", duration=100,
                               options=["--job-name=sb-arr"])
        cluster.advance(5)
        slurm.cleanup_run(sim_endpoint, [], cancel="sb-arr")
        assert all(t.state is JobState.CANCELLED for t in cluster.jobs[job_id].tasks)


class TestFetchLogfile:
    def test_fetch_after_failure(self, sim_endpoint, tmp_path):
        prepare_run_dirs(sim_endpoint)
        sim_endpoint.cluster.inject_fault(
            FaultDirective(script_substring="job", forced_state=JobState.FAILED))
        handle = slurm.JobHandle(submit_workflow(sim_endpoint))
        sim_endpoint.cluster.advance(100)
        with fetch_logs(sim_endpoint, "/scratch/omero/logs") as archive:
            local = slurm.fetch_logfile(archive, handle, "/scratch/omero/logs",
                                        str(tmp_path / "logs"))
        assert os.path.basename(local) == "omero-job-1.log"
        with open(local) as f:
            assert "FAILED" in f.read()

    def test_log_missing(self, sim_endpoint, tmp_path):
        sim_endpoint.cluster.fs.make_dirs("/scratch/omero/logs")
        sim_endpoint.cluster.fs.write("/scratch/omero/logs/other.log", b"x")
        with fetch_logs(sim_endpoint, "/scratch/omero/logs") as archive:
            for handle in (slurm.JobHandle(9), slurm.JobHandle(9, array_size=2)):
                with pytest.raises(LogMissing):
                    slurm.fetch_logfile(archive, handle, "/scratch/omero/logs",
                                        str(tmp_path / "logs"))

    def test_array_task_logs(self, sim_endpoint, tmp_path):
        # Oracle: enumerate the simulator filesystem for per-task logs. The
        # array's script names them as the client's conversion scripts do.
        cluster = sim_endpoint.cluster
        job_id = submit_script(cluster, "/scratch/arr.sh", array="0-2", duration=5,
                               log="omero-job-%A_%a.log")
        cluster.advance(60)
        assert cluster.fs.files_under("/scratch/logs") == [
            f"omero-job-{job_id}_{k}.log" for k in range(3)]
        handle = slurm.JobHandle(job_id, array_size=3)
        with fetch_logs(sim_endpoint, "/scratch/logs") as archive:
            local = slurm.fetch_logfile(archive, handle, "/scratch/logs", str(tmp_path / "logs"))
        assert local == str(tmp_path / "logs" / f"omero-job-{job_id}_0.log")
        fetched = sorted(os.listdir(tmp_path / "logs"))
        assert fetched == cluster.fs.files_under("/scratch/logs")
        for name in fetched:
            assert (tmp_path / "logs" / name).read_bytes() == \
                cluster.fs.read(f"/scratch/logs/{name}")


class TestFetchResults:
    def test_zip_matches_remote_content(self, sim_endpoint):
        # Oracle: unzip locally and hash-compare against simulator files.
        prepare_run_dirs(sim_endpoint)
        fs = sim_endpoint.cluster.fs
        fs.write("/scratch/omero/data/r1/out/x.tiff", b"xxx")
        fs.write("/scratch/omero/data/r1/out/y.tiff", b"yyy")
        fs.make_dirs("/scratch/omero/data/r1/out/masks")
        fs.write("/scratch/omero/data/r1/out/masks/a.tiff", b"mask")
        # An archive written inside the dir it zips leaves itself out.
        _, (_, bundle, removed) = slurm.fetch_results(
            sim_endpoint, "sb-test", 0, ["/scratch/omero/data/r1/out"],
            "/scratch/omero/data/r1/out/results.zip")
        assert removed == []
        assert bundle == fs.read("/scratch/omero/data/r1/out/results.zip")
        with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
            names = sorted(archive.namelist())
            assert names == [f"scratch/omero/data/r1/out/{name}"
                             for name in ("masks/a.tiff", "x.tiff", "y.tiff")]
            for name in names:
                remote = fs.read("/" + name)
                assert hashlib.sha256(archive.read(name)).hexdigest() == \
                    hashlib.sha256(remote).hexdigest()

    def test_bundle_is_one_launch_and_holds_no_input(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        fs = sim_endpoint.cluster.fs
        fs.write("/scratch/omero/data/r1/out/x.tiff", b"xxx")
        fs.write("/scratch/omero/logs/omero-job-1.log", b"log")
        launches = record_launches(sim_endpoint)
        _, (_, bundle, _) = slurm.fetch_results(
            sim_endpoint, "sb-test", 0,
            ["/scratch/omero/data/r1/out", "/scratch/omero/data/r2/out", "/scratch/omero/logs"],
            "/scratch/omero/data/r1/bundle.zip")
        assert [command[0] for command in launches] == ["sh"]
        with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
            assert sorted(archive.namelist()) == [
                "scratch/omero/data/r1/out/x.tiff", "scratch/omero/logs/omero-job-1.log"]
        # The inputs beside the out dir are still there, and left out.
        assert fs.files_under("/scratch/omero/data/r1/in") == ["a.tiff", "b.tiff"]

    def test_teardown_rides_in_the_launch(self, sim_endpoint):
        # The launch that brings the bundle back reads the job's state
        # first, and then cancels the named jobs and removes the run paths
        # after the stream, the archive with them.
        prepare_run_dirs(sim_endpoint)
        submit_workflow(sim_endpoint)
        sim_endpoint.cluster.fs.write("/scratch/omero/data/r1/out/x.tiff", b"xxx")
        launches = record_launches(sim_endpoint)
        _, (accounting, bundle, removed) = slurm.fetch_results(
            sim_endpoint, "sb-test", 3600, ["/scratch/omero/data/r1/out"],
            "/scratch/omero/data/r1/bundle.zip",
            ["/scratch/omero/data/r1", "/scratch/omero/data/r1.zip"], cancel=True)
        assert len(launches) == 1
        # With no guard, every command runs behind an empty one.
        _, guard, then = unframe_commands(launches[0])
        assert guard == []
        assert then[0] == ["sacct", "-n", "-P", "-X", "--name=sb-test",
                           "-S", "now-90000", "-o", "JobID,WorkDir,State"]
        assert slurm.job_states(accounting) == {
            ("/scratch/omero/data/r1", "workflow"): (1, JobState.PENDING)}
        assert then[4:] == slurm.teardown_commands(
            ["/scratch/omero/data/r1", "/scratch/omero/data/r1.zip"], "sb-test")
        with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
            assert archive.read("scratch/omero/data/r1/out/x.tiff") == b"xxx"
        assert removed == ["/scratch/omero/data/r1"]
        assert not sim_endpoint.path_exists("/scratch/omero/data/r1")
        assert polled(sim_endpoint) == {1: JobState.CANCELLED}

    def test_guard_holds_the_bundle_and_teardown_back_while_a_job_is_queued(
            self, sim_endpoint):
        # The poll guard fails while job 1 is queued, listing it: nothing
        # else runs. Once the job has ended, the same launch reads its
        # state, brings the bundle back and removes the run dir.
        prepare_run_dirs(sim_endpoint)
        submit_workflow(sim_endpoint)
        sim_endpoint.cluster.fs.write("/scratch/omero/data/r1/out/x.tiff", b"xxx")
        args = (sim_endpoint, "sb-test", 0, ["/scratch/omero/data/r1/out"],
                "/scratch/omero/data/r1/bundle.zip", ["/scratch/omero/data/r1"])
        guard = slurm.poll_guard("sb-test")
        [queued], fetched = slurm.fetch_results(*args, guard=guard)
        assert (queued.exit_code, queued.stdout, fetched) == (1, "1", None)
        assert sim_endpoint.path_exists("/scratch/omero/data/r1")
        sim_endpoint.sleep(3600)
        [queued], (accounting, bundle, removed) = slurm.fetch_results(*args, guard=guard)
        assert (queued.exit_code, queued.stdout) == (0, "")
        assert slurm.job_states(accounting) == {
            ("/scratch/omero/data/r1", "workflow"): (1, JobState.COMPLETED)}
        with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
            assert archive.read("scratch/omero/data/r1/out/x.tiff") == b"xxx"
        assert removed == ["/scratch/omero/data/r1"]

    def test_empty_output(self, sim_endpoint):
        # Nothing to send back; the teardown runs all the same.
        prepare_run_dirs(sim_endpoint)
        _, (_, bundle, removed) = slurm.fetch_results(
            sim_endpoint, "sb-test", 0,
            ["/scratch/omero/data/r1/out", "/scratch/omero/data/r2/out"],
            "/scratch/omero/data/r1/out.zip", ["/scratch/omero/data/r1"])
        assert isinstance(bundle, EmptyOutput)
        assert removed == ["/scratch/omero/data/r1"]
        assert not sim_endpoint.path_exists("/scratch/omero/data/r1")

    def test_failed_zip_names_its_cause(self, sim_endpoint):
        # The archive's dir does not exist; zip says so on stdout.
        prepare_run_dirs(sim_endpoint)
        sim_endpoint.cluster.fs.write("/scratch/omero/data/r1/out/x.tiff", b"x")
        _, (_, bundle, _) = slurm.fetch_results(sim_endpoint, "sb-test", 0,
                                                ["/scratch/omero/data/r1/out"],
                                                "/scratch/gone/b.zip")
        assert isinstance(bundle, TransportError)
        assert "zip error: Could not create output file (/scratch/gone/b.zip)" in str(bundle)

    def test_an_8_mib_bundle_decodes_without_an_ascii_copy(self):
        # The stream is decoded from its str: the peak is the bundle and
        # little more, not also an ASCII bytes copy of the 11 MiB stream.
        data = bytes(range(256)) * (32 << 10)
        zipped, digest, stream = (ExecResult(0, "", ""),
                                  ExecResult(0, f"{hashlib.sha256(data).hexdigest()}  b.zip\n", ""),
                                  ExecResult(0, base64.encodebytes(data).decode(), ""))
        bundle, peak = traced_peak(lambda: slurm._bundle(["out"], "b.zip", zipped, digest, stream))
        assert bundle == data
        assert peak < 9 << 20, peak

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_stream_fails_its_digest(self, damage):
        endpoint = SimEndpoint(DamagesStream(DAMAGES[damage]))
        prepare_run_dirs(endpoint)
        endpoint.cluster.fs.write("/scratch/omero/data/r1/out/x.tiff", bytes(range(256)))
        _, (_, bundle, removed) = slurm.fetch_results(
            endpoint, "sb-test", 0, ["/scratch/omero/data/r1/out"],
            "/scratch/omero/data/r1/bundle.zip", ["/scratch/omero/data/r1"])
        assert isinstance(bundle, ChecksumMismatch)
        assert "sha256" in str(bundle)
        assert removed == ["/scratch/omero/data/r1"]


@pytest.mark.skipif(shutil.which("zip") is None, reason="Info-ZIP zip not installed")
class TestInfoZipNaming:
    """The simulator's zip and the archive readers against Info-ZIP itself."""

    FILES = {"run/batch0/out/a_mask.tiff": b"a", "run/batch0/out/sub/b.tiff": b"bb",
             "run/batch1/out/c_mask.tiff": b"ccc", "logs/omero-job-6.log": b"plain",
             "logs/omero-job-7_0.log": b"task0", "logs/omero-job-7_1.log": b"task1"}

    def tree(self, tmp_path, fs):
        """The same files on local disk and, at the same paths, in fs."""
        root = str(tmp_path / "scratch")
        for name, data in self.FILES.items():
            path = os.path.join(root, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(data)
            fs.make_dirs(os.path.dirname(path))
            fs.write(path, data)
        os.makedirs(os.path.join(root, "run", "batch2", "out"))
        fs.make_dirs(os.path.join(root, "run", "batch2", "out"))
        return root

    def real_zip(self, archive, *paths):
        return subprocess.run(["zip", "-q", "-r", "-D", archive, *paths],
                              capture_output=True).returncode

    def test_simulator_names_entries_as_info_zip_does(self, sim_endpoint, tmp_path):
        # The archive lies in the first path, so it must leave itself out;
        # missing and empty paths add nothing; a file named twice is added once.
        root = self.tree(tmp_path, sim_endpoint.cluster.fs)
        for names in (["run"], ["logs"], ["run/batch2"], ["run/batch2", "run/batch9/out"],
                      ["run/batch0/out", "run/batch9/out", "run/batch2/out",
                       "run/batch0/out/sub", "logs/omero-job-6.log"]):
            paths = [os.path.join(root, name) for name in names]
            archive = os.path.join(paths[0], "all.zip")
            real_code = self.real_zip(archive, *paths)
            result = sim_endpoint.exec(["zip", "-q", "-r", "-D", archive, *paths])
            assert result.exit_code == real_code
            if real_code:
                assert real_code == 12  # nothing to do: no file under any path
                assert not os.path.exists(archive)
                assert not sim_endpoint.cluster.fs.exists(archive)
                continue
            with zipfile.ZipFile(archive) as real, zipfile.ZipFile(
                    io.BytesIO(sim_endpoint.cluster.fs.read(archive))) as sim:
                assert sorted(sim.namelist()) == sorted(real.namelist())
                assert all(sim.read(n) == real.read(n) for n in real.namelist())

    def test_failed_info_zip_names_its_cause(self, shell_router, tmp_path):
        # Info-ZIP explains a failure on stdout and leaves stderr empty.
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "x.tiff").write_bytes(b"x")
        archive = str(tmp_path / "gone" / "b.zip")
        _, (_, bundle, _) = slurm.fetch_results(ssh_endpoint(), "sb-test", 0,
                                                [str(tmp_path / "out")], archive)
        assert isinstance(bundle, TransportError)
        assert f"zip error: Could not create output file ({archive})" in str(bundle)

    @pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("sha256sum", "base64")),
                        reason="coreutils sha256sum/base64 not installed")
    def test_retrieval_launch_through_real_shell(self, shell_router, tmp_path):
        # A run's retrieval launch through SshEndpoint, /bin/sh and the
        # installed zip, sha256sum, base64, test and rm. On the router's
        # PATH, sacct and scancel are stubs, the second logging its
        # arguments, and zip a wrapper of the installed one that keeps a
        # copy of the archive it wrote.
        root = self.tree(tmp_path, SimCluster().fs)
        run_dir, logs_dir = os.path.join(root, "run"), os.path.join(root, "logs")
        with open(run_dir + ".zip", "wb") as upload:
            upload.write(b"upload")
        kept, cancels = tmp_path / "kept.zip", tmp_path / "scancel.log"
        shell_router.stub("sacct", f'echo "6|{run_dir}/batch0|COMPLETED"\n')
        shell_router.stub("scancel", f'echo "$@" >> {cancels}\n')
        shell_router.stub("zip", f'{shutil.which("zip")} "$@" || exit $?\ncp "$4" {kept}\n')
        _, (accounting, bundle, removed) = slurm.fetch_results(
            ssh_endpoint(), "sb-run", 0,
            [os.path.join(run_dir, f"batch{k}", "out") for k in range(3)] + [logs_dir],
            os.path.join(run_dir, "bundle.zip"), [run_dir, run_dir + ".zip"], cancel=True)
        assert [argv[0] for argv in shell_router.launches] == ["ssh"]
        assert slurm.job_states(accounting) == {
            (f"{run_dir}/batch0", "workflow"): (6, JobState.COMPLETED)}
        # The stream decoded and passed the digest sha256sum gave.
        assert isinstance(bundle, bytes) and bundle == kept.read_bytes()
        with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
            assert sorted(archive.namelist()) == sorted(
                slurm.zip_entry_name(os.path.join(root, name)) for name in self.FILES)
        assert cancels.read_text() == "--name=sb-run\n"
        assert removed == [run_dir, run_dir + ".zip"]
        assert not os.path.exists(run_dir) and not os.path.exists(run_dir + ".zip")
        assert sorted(os.listdir(logs_dir)) == sorted(
            os.path.basename(name) for name in self.FILES if name.startswith("logs/"))

    def test_logs_extracted_from_info_zip_archive(self, tmp_path):
        # Job 7 is an array of three tasks, whose last wrote no log yet.
        root = self.tree(tmp_path, SimCluster().fs)
        archive = str(tmp_path / "logs.zip")
        logs_dir = os.path.join(root, "logs")
        assert self.real_zip(archive, logs_dir) == 0
        with zipfile.ZipFile(archive) as logs:
            local = slurm.fetch_logfile(logs, slurm.JobHandle(7, array_size=3), logs_dir,
                                        str(tmp_path / "local"))
            plain = slurm.fetch_logfile(logs, slurm.JobHandle(6), logs_dir,
                                        str(tmp_path / "local"))
        assert sorted(os.listdir(tmp_path / "local")) == [
            "omero-job-6.log", "omero-job-7_0.log", "omero-job-7_1.log"]
        with open(local, "rb") as f:
            assert f.read() == b"task0"
        with open(plain, "rb") as f:
            assert f.read() == b"plain"


class TestCleanupRun:
    def test_removes_data_keeps_logs(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        job_id = submit_workflow(sim_endpoint)
        sim_endpoint.cluster.advance(100)
        removed = slurm.cleanup_run(sim_endpoint, ["/scratch/omero/data/r1"])
        assert removed == ["/scratch/omero/data/r1"]
        assert not sim_endpoint.path_exists("/scratch/omero/data/r1")
        assert sim_endpoint.path_exists(f"/scratch/omero/logs/omero-job-{job_id}.log")

    def test_double_cleanup_idempotent(self, sim_endpoint):
        prepare_run_dirs(sim_endpoint)
        slurm.cleanup_run(sim_endpoint, ["/scratch/omero/data/r1"])
        assert slurm.cleanup_run(sim_endpoint, ["/scratch/omero/data/r1"]) == []


class TestStateMonotonicityProperty:
    def test_random_poll_timings_respect_transitions(self):
        # Criterion-7-style check at reduced scale; acceptance runs 500.
        import random

        from slurmbridge.states import is_reachable

        for seed in range(100):
            rng = random.Random(seed)
            endpoint = SimEndpoint(SimCluster())
            cluster = endpoint.cluster
            if rng.random() < 0.4:
                cluster.inject_fault(FaultDirective(
                    script_substring="j0",
                    forced_state=rng.choice([JobState.FAILED, JobState.TIMEOUT])))
            for index in range(rng.randint(1, 4)):
                submit_script(
                    cluster, f"/scratch/j{index}/job.sh",
                    cpus=rng.randint(1, 4), duration=rng.randint(1, 40),
                    time_limit="00:01:00",
                    array=f"0-{rng.randint(0, 2)}" if rng.random() < 0.3 else None,
                    options=["--job-name=sb-test", f"--chdir=/scratch/j{index}"])
            observed = {}
            for _ in range(rng.randint(3, 12)):
                states = polled(endpoint)
                for job_id, state in states.items():
                    if job_id in observed:
                        assert is_reachable(observed[job_id], state), \
                            (seed, job_id, observed[job_id], state)
                    observed[job_id] = state
                cluster.advance(rng.randint(0, 30))
