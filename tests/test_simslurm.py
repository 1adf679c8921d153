import hashlib
import itertools
import json
import os
import random
import sys
import time
import tracemalloc
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slurmbridge.simslurm import (
    DEFAULT_NODES,
    FaultDirective,
    SimCluster,
    SimEndpoint,
    load_topology,
)
from slurmbridge.states import (
    JobState,
    aggregate_array_states,
    is_valid_transition,
)
from slurmbridge.transport import ExecResult
from tests.conftest import render_event, render_event_trace


def submit_script(cluster, path, **script):
    """Write a job script of the given settings at path and submit it;
    returns the job id."""
    result = sbatch_script(cluster, path, **script)
    assert result.exit_code == 0, result.stderr
    return int(result.stdout.split()[-1])


def sbatch_script(cluster, path, mem=1024, cpus=1, gpus=0, time_limit="01:00:00",
                  duration=10, array=None, exports=(), options=(),
                  log="omero-job-%j.log"):
    """Write a job script of these settings at path; returns what sbatch
    answers to it. Unless duration is None, a fault directive on path runs
    the job for duration seconds."""
    lines = [
        "#!/bin/bash",
        f"#SBATCH --mem={mem}",
        f"#SBATCH --cpus-per-task={cpus}",
        f"#SBATCH --time={time_limit}",
        f"#SBATCH --output=/scratch/logs/{log}",
    ]
    if gpus:
        lines.append(f"#SBATCH --gres=gpu:{gpus}")
    if array is not None:
        lines.append(f"#SBATCH --array={array}")
    lines += [f'export {name}="{value}"' for name, value in exports]
    lines.append("true")
    cluster.fs.make_dirs("/scratch/logs")
    cluster.fs.make_dirs(path.rsplit("/", 1)[0])
    cluster.fs.write(path, ("\n".join(lines) + "\n").encode())
    if duration is not None:
        cluster.inject_fault(FaultDirective(script_substring=path, duration_s=duration))
    return cluster.sim_exec(["sbatch", *options, path])


def fits_some_node(cluster, resources):
    """Whether some node, idle, has the cpus, gpus and mem_mb asked for."""
    return any(node.cpus >= resources["cpus"] and node.gpus >= resources["gpus"]
               and node.mem_mb >= resources["mem_mb"] for node in cluster.nodes)


def random_schedule(cluster, rng, tag, options=()):
    """Submit 1-5 random jobs, with the sbatch options given; sbatch
    refuses, taking no job id, exactly those that no node could hold.
    Returns the ids of the others."""
    job_ids = []
    for index in range(rng.randint(1, 5)):
        resources = {"mem_mb": rng.choice([512, 1024, 4096]), "cpus": rng.randint(1, 4),
                     "gpus": rng.choice([0, 0, 1])}
        next_id = cluster.next_job_id
        result = sbatch_script(
            cluster, f"/scratch/{tag}-{index}.sh",
            mem=resources["mem_mb"], cpus=resources["cpus"], gpus=resources["gpus"],
            time_limit="00:01:00",
            duration=rng.randint(1, 90),
            array=f"0-{rng.randint(0, 3)}" if rng.random() < 0.3 else None,
            options=options,
        )
        if fits_some_node(cluster, resources):
            assert result.stdout == f"Submitted batch job {next_id}\n", result.stderr
            job_ids.append(next_id)
        else:
            assert (result.exit_code, cluster.next_job_id) == (1, next_id)
            assert "Requested node configuration is not available" in result.stderr
        if rng.random() < 0.5:
            cluster.advance(rng.randint(0, 20))
    return job_ids


def job_state(cluster, job_id):
    return cluster.jobs[job_id].parent_state()


def sacct(cluster, name, ago=10**6):
    """What the simulator's sacct of the client's form prints for the jobs
    named name that had not ended ago seconds ago, or, if None, by 00:00 of
    the current day, less each record's work dir: `<entry id>|<state>` lines."""
    window = [] if ago is None else ["-S", f"now-{ago}"]
    result = cluster.sim_exec(["sacct", "-n", "-P", "-X", f"--name={name}", *window,
                               "-o", "JobID,WorkDir,State"])
    assert result.exit_code == 0, result.stderr
    return "".join(f"{line.split('|')[0]}|{line.split('|')[-1]}\n"
                   for line in result.stdout.splitlines())


class TestSubmission:
    def test_sbatch_grammar_and_initial_state(self):
        cluster = SimCluster()
        job_id = submit_script(cluster, "/scratch/job.sh", cpus=2, options=["--job-name=j"])
        assert sacct(cluster, "j") == f"{job_id}|PENDING\n"
        parsable = sbatch_script(cluster, "/scratch/job.sh", options=["--parsable"])
        assert (parsable.exit_code, parsable.stdout) == (0, f"{job_id + 1}\n")

    def test_sacct_unknown_id_empty(self):
        # An unknown name lists nothing; the `-j <ids>` form the client no
        # longer sends is refused.
        cluster = SimCluster()
        submit_script(cluster, "/scratch/job.sh", options=["--job-name=j"])
        assert sacct(cluster, "other") == ""
        result = cluster.sim_exec(["sacct", "-n", "-P", "-X", "-o", "JobID,State", "-j", "1"])
        assert (result.exit_code, result.stdout) == (2, "")

    def test_sacct_lists_each_job_that_had_not_ended_by_its_start(self):
        # sacct lists a job of the name when it had not ended by -S, the
        # clock less the seconds of `now-<seconds>`, or, with no -S, by
        # 00:00 of the current day, as sacct(1) does; clock 0 is a midnight.
        cluster = SimCluster()
        cluster.clock = 86400 - 20
        early = submit_script(cluster, "/scratch/e.sh", duration=5, options=["--job-name=j"])
        late = submit_script(cluster, "/scratch/l.sh", duration=60, options=["--job-name=j"])
        cluster.advance(30)  # the early job ended 25 s ago, before midnight; the late one runs on
        assert sacct(cluster, "j", None) == f"{late}|RUNNING\n"
        assert sacct(cluster, "j", 25) == f"{early}|COMPLETED\n{late}|RUNNING\n"
        assert sacct(cluster, "j", 24) == f"{late}|RUNNING\n"
        for window in (["-S", "2024-01-01T23:59:45"], ["-S", "now-1h"], ["-S"]):
            result = cluster.sim_exec(["sacct", "-n", "-P", "-X", "--name=j", *window,
                                       "-o", "JobID,WorkDir,State"])
            assert (result.exit_code, result.stdout) == (2, "")

    def test_squeue_lists_each_queued_record(self):
        """`squeue -a -h --name=<name> -o %i` prints a line per record still
        queued or running of a job of that name: a job's id, a running array
        task's `<id>_<k>`, and an array's pending tasks as one
        `<id>_[<ranges>]`; an ended job or task, a job of another name or
        none, and an unknown name print nothing. The `-j <ids>` form the
        client does not send is refused."""
        cluster = SimCluster(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 8192}])
        named = ["--job-name=n"]
        array = submit_script(cluster, "/scratch/a.sh", cpus=2, duration=10, array="0-5",
                              options=named + ["--chdir=/scratch/b0"])
        plain = submit_script(cluster, "/scratch/p.sh", cpus=1, duration=5, options=named)
        other = submit_script(cluster, "/scratch/o.sh", duration=60, options=["--job-name=o"])
        submit_script(cluster, "/scratch/u.sh", duration=60)
        squeue = ["squeue", "-a", "-h", "--name=n", "-o", "%i"]
        assert cluster.sim_exec(squeue).stdout == f"{array}_[0-5]\n{plain}\n"
        cluster.advance(1)
        assert cluster.sim_exec(squeue).stdout == (
            f"{array}_0\n{array}_1\n{array}_[2-5]\n{plain}\n")
        cluster.advance(20)
        assert cluster.sim_exec(squeue).stdout == f"{array}_4\n{array}_5\n{plain}\n"
        cluster.advance(10)  # the plain job starts as the last tasks end
        assert cluster.sim_exec(squeue).stdout == f"{plain}\n"
        cluster.advance(10)
        assert cluster.sim_exec(squeue) == ExecResult(0, "", "")
        assert cluster.sim_exec(["squeue", "-a", "-h", "--name=o", "-o", "%i"]).stdout == (
            f"{other}\n")
        assert cluster.sim_exec(["squeue", "-a", "-h", "--name=x", "-o", "%i"]) == ExecResult(
            0, "", "")
        assert cluster.sim_exec(["squeue", "-h", "-j", f"{array},{plain}", "-o", "%i"]) == (
            ExecResult(2, "", f"squeue: form not simulated: squeue -h -j {array},{plain} -o %i\n"))

    def test_squeue_answers_the_id_format_and_refuses_the_work_dir_format(self):
        """The guard's `-o %i` is answered; `-o %i|%Z`, which the client no
        longer sends, is refused with nothing printed."""
        cluster = SimCluster()
        job = submit_script(cluster, "/scratch/b0/job.sh", duration=60,
                            options=["--job-name=n", "--chdir=/scratch/b0"])
        squeue = ["squeue", "-a", "-h", "--name=n", "-o"]
        assert cluster.sim_exec(squeue + ["%i"]) == ExecResult(0, f"{job}\n", "")
        assert cluster.sim_exec(squeue + ["%i|%Z"]) == ExecResult(
            2, "", "squeue: form not simulated: squeue -a -h --name=n -o '%i|%Z'\n")

    @pytest.mark.parametrize("ask", [dict(cpus=8), dict(gpus=2), dict(mem=16385)],
                             ids=["cpus", "gpus", "mem"])
    def test_oversized_job_is_refused(self, ask):
        """A job that asks more CPUs, GPUs or memory than any one node has
        is refused as sbatch refuses it, before it takes a job id: it would
        pend forever."""
        cluster = SimCluster()
        result = sbatch_script(cluster, "/scratch/big.sh", **ask)
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", "sbatch: error: Batch job submission failed: "
                   "Requested node configuration is not available\n")
        assert (cluster.jobs, cluster.next_job_id) == ({}, 1)
        assert submit_script(cluster, "/scratch/fits.sh", cpus=4, gpus=1, mem=16384) == 1

    def test_job_ids_increment_from_one(self):
        cluster = SimCluster()
        first = submit_script(cluster, "/scratch/a.sh")
        second = submit_script(cluster, "/scratch/b.sh")
        assert (first, second) == (1, 2)


class TestScheduling:
    def test_fifo_serialization_on_one_node(self):
        # Oracle: hand-built timeline. One 4-cpu node; A,B each need 4 cpus
        # for 10 s, submitted together: A runs [0,10), B runs [10,20).
        cluster = SimCluster(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 8192}])
        a = submit_script(cluster, "/scratch/a.sh", cpus=4, duration=10)
        b = submit_script(cluster, "/scratch/b.sh", cpus=4, duration=10)
        events = cluster.advance(30)
        starts = {e.entry_id: e.time for e in events
                  if e.new_state is JobState.RUNNING}
        ends = {e.entry_id: e.time for e in events
                if e.new_state is JobState.COMPLETED}
        assert starts == {str(a): 0, str(b): 10}
        assert ends == {str(a): 10, str(b): 20}

    def test_advance_zero_is_identity(self):
        cluster = SimCluster()
        submit_script(cluster, "/scratch/a.sh")
        assert cluster.advance(0) == []

    def test_timeout_at_limit(self):
        # Oracle: limit 60*1 s... time limit 1 min = 60 s < duration 100 s.
        cluster = SimCluster()
        job_id = submit_script(cluster, "/scratch/slow.sh",
                               time_limit="00:01:00", duration=100)
        events = cluster.advance(200)
        timeout_events = [e for e in events if e.new_state is JobState.TIMEOUT]
        assert [e.time for e in timeout_events] == [60]
        assert job_state(cluster, job_id) is JobState.TIMEOUT

    def test_head_of_queue_never_starved(self):
        cluster = SimCluster(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 8192}])
        head = submit_script(cluster, "/scratch/head.sh", cpus=2, duration=50)
        cluster.advance(1)
        assert job_state(cluster, head) is JobState.RUNNING

    def test_outputs_written_on_completion(self):
        # A mask is named by its input's id, the entry name less its
        # format's suffix, however many dots the id holds.
        cluster = SimCluster()
        cluster.fs.make_dirs("/scratch/run/in/c.v1.zarr/0")
        cluster.fs.make_dirs("/scratch/run/out")
        for name in ("a.x.tiff", "a.y.tiff", "b.tiff", "d.e.ome.tiff", "c.v1.zarr/0/0"):
            cluster.fs.write(f"/scratch/run/in/{name}", b"x")
        submit_script(
            cluster, "/scratch/job.sh", duration=5,
            exports=[("IN_PATH", "/scratch/run/in"), ("OUT_PATH", "/scratch/run/out")],
        )
        cluster.advance(10)
        assert cluster.fs.files_under("/scratch/run/out") == [
            "a.x_mask.tiff", "a.y_mask.tiff", "b_mask.tiff", "c.v1_mask.tiff", "d.e_mask.tiff",
        ]

    def test_script_name_sets_the_run_time(self):
        """job.sh runs 30 s, convert.sh's tasks 5 s and any other script
        10 s; a directive with duration_s overrides that for the scripts it
        names."""
        cluster = SimCluster(nodes=[{"cpus": 64, "gpus": 0, "mem_mb": 65536}])
        cluster.inject_fault(FaultDirective(script_substring="b1/", duration_s=7))
        ids = {path: submit_script(cluster, path, duration=None, array=array)
               for path, array in (("/scratch/b0/job.sh", None), ("/scratch/b0/convert.sh", "0-1"),
                                   ("/scratch/b0/other.sh", None), ("/scratch/b1/job.sh", None))}
        cluster.advance(100)
        assert {path: sorted({t.finish_time - t.start_time for t in cluster.jobs[i].tasks})
                for path, i in ids.items()} == {
            "/scratch/b0/job.sh": [30], "/scratch/b0/convert.sh": [5],
            "/scratch/b0/other.sh": [10], "/scratch/b1/job.sh": [7]}

    def test_logfile_written(self):
        cluster = SimCluster()
        job_id = submit_script(cluster, "/scratch/job.sh", duration=5)
        cluster.advance(10)
        assert cluster.fs.exists(f"/scratch/logs/omero-job-{job_id}.log")


class TestArrays:
    def test_array_tasks_expand_and_report(self):
        cluster = SimCluster(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 8192}])
        job_id = submit_script(cluster, "/scratch/arr.sh", cpus=1,
                               duration=10, array="0-5", options=["--job-name=a"])
        assert sacct(cluster, "a").splitlines() == [f"{job_id}_[0-5]|PENDING"]
        cluster.advance(1)
        assert sacct(cluster, "a").splitlines() == [
            *(f"{job_id}_{k}|RUNNING" for k in range(4)), f"{job_id}_[4-5]|PENDING"]

    def test_array_runs_within_capacity(self):
        # 6 one-cpu tasks on a 4-cpu node: two waves of (4, 2) => 20 s total.
        cluster = SimCluster(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 8192}])
        job_id = submit_script(cluster, "/scratch/arr.sh", cpus=1,
                               duration=10, array="0-5")
        cluster.advance(19)
        assert job_state(cluster, job_id) is JobState.RUNNING
        cluster.advance(1)
        assert job_state(cluster, job_id) is JobState.COMPLETED

    def test_scancel_array_cancels_all_tasks(self):
        cluster = SimCluster(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 8192}])
        job_id = submit_script(cluster, "/scratch/arr.sh", cpus=1,
                               duration=100, array="0-5")
        cluster.advance(5)
        cluster.sim_exec(["scancel", str(job_id)])
        assert all(t.state is JobState.CANCELLED
                   for t in cluster.jobs[job_id].tasks)
        assert job_state(cluster, job_id) is JobState.CANCELLED

    def test_array_logs_fill_in_array_id_and_task_index(self):
        # %A is the array's id and %a the task's index; task 4 waits for a
        # CPU and is cancelled while it runs, which writes its log too. The
        # array as a whole writes none.
        cluster = SimCluster(nodes=[{"cpus": 2, "gpus": 0, "mem_mb": 8192}])
        job_id = submit_script(cluster, "/scratch/arr.sh", cpus=1, duration=10,
                               array="2-4", log="arr-%A.%a.log")
        cluster.advance(15)
        cluster.sim_exec(["scancel", str(job_id)])
        assert cluster.fs.files_under("/scratch/logs") == [
            f"arr-{job_id}.{k}.log" for k in (2, 3, 4)]
        last_lines = [cluster.fs.read(f"/scratch/logs/arr-{job_id}.{k}.log").splitlines()[-1]
                      for k in (2, 4)]
        assert last_lines == [b"final state COMPLETED exit 0", b"final state CANCELLED exit 1"]


class TestCancel:
    def test_cancel_pending(self):
        cluster = SimCluster()
        job_id = submit_script(cluster, "/scratch/a.sh")
        cluster.sim_exec(["scancel", str(job_id)])
        assert job_state(cluster, job_id) is JobState.CANCELLED

    def test_cancel_terminal_is_noop(self):
        cluster = SimCluster()
        job_id = submit_script(cluster, "/scratch/a.sh", duration=5)
        cluster.advance(10)
        assert job_state(cluster, job_id) is JobState.COMPLETED
        cluster.sim_exec(["scancel", str(job_id)])
        assert job_state(cluster, job_id) is JobState.COMPLETED


class TestDependencies:
    AFTER = ("--dependency=afterok:{}", "--kill-on-invalid-dep=yes")

    def after(self, job_id):
        return [option.format(job_id) for option in self.AFTER]

    def test_afterok_waits_without_blocking_later_jobs(self):
        cluster = SimCluster(nodes=[{"cpus": 2, "gpus": 0, "mem_mb": 8192}])
        first = submit_script(cluster, "/scratch/a.sh", duration=30)
        waiting = submit_script(cluster, "/scratch/b.sh", duration=10,
                                options=self.after(first))
        later = submit_script(cluster, "/scratch/c.sh", duration=10)
        cluster.advance(5)
        assert [job_state(cluster, j) for j in (first, waiting, later)] == [
            JobState.RUNNING, JobState.PENDING, JobState.RUNNING]
        cluster.advance(100)
        assert cluster.jobs[waiting].tasks[0].start_time == 30
        assert job_state(cluster, waiting) is JobState.COMPLETED

    def test_afterok_on_an_array_waits_for_every_task(self):
        cluster = SimCluster(nodes=[{"cpus": 2, "gpus": 0, "mem_mb": 8192}])
        array = submit_script(cluster, "/scratch/arr.sh", duration=5, array="0-3")
        waiting = submit_script(cluster, "/scratch/b.sh", options=self.after(array))
        cluster.advance(100)
        assert cluster.jobs[waiting].tasks[0].start_time == 10

    @pytest.mark.parametrize("forced", [JobState.FAILED, JobState.TIMEOUT,
                                        JobState.CANCELLED])
    def test_failed_dependency_cancels_unstarted_without_log(self, forced):
        cluster = SimCluster()
        cluster.inject_fault(FaultDirective(script_substring="a.sh", forced_state=forced))
        first = submit_script(cluster, "/scratch/a.sh", time_limit="00:01:00", duration=5)
        waiting = submit_script(cluster, "/scratch/b.sh", options=self.after(first))
        if forced is JobState.CANCELLED:
            cluster.sim_exec(["scancel", str(first)])
        cluster.advance(100)
        task = cluster.jobs[waiting].tasks[0]
        assert (task.state, task.start_time) == (JobState.CANCELLED, None)
        assert not cluster.fs.exists(f"/scratch/logs/omero-job-{waiting}.log")

    @pytest.mark.parametrize("options", [
        ["--dependency=afterok:99"], ["--dependency=afterany:1"], ["--partition=gpu"],
        ["--kill-on-invalid-dep=maybe"], ["--dependency=afterok:1"], ["--job-name"]])
    def test_sbatch_rejects_what_it_cannot_honour(self, options):
        cluster = SimCluster()
        submit_script(cluster, "/scratch/a.sh")
        result = cluster.sim_exec(["sbatch", *options, "/scratch/a.sh"])
        assert result.exit_code == 1 and result.stderr.startswith("sbatch:")
        assert len(cluster.jobs) == 1

    def test_scancel_by_name(self):
        cluster = SimCluster()
        named = [submit_script(cluster, f"/scratch/{n}.sh", duration=100,
                               options=["--job-name=sb-run"]) for n in "ab"]
        other = submit_script(cluster, "/scratch/c.sh", duration=100,
                              options=["--job-name=sb-other"])
        cluster.advance(5)
        assert cluster.sim_exec(["scancel", "--name=sb-run"]).exit_code == 0
        assert [job_state(cluster, j) for j in named + [other]] == [
            JobState.CANCELLED, JobState.CANCELLED, JobState.RUNNING]


class TestFaults:
    def test_force_failed(self):
        cluster = SimCluster()
        cluster.inject_fault(FaultDirective(script_substring="fail-me",
                                            forced_state=JobState.FAILED))
        job_id = submit_script(cluster, "/scratch/fail-me.sh", duration=5)
        cluster.advance(10)
        assert job_state(cluster, job_id) is JobState.FAILED
        assert cluster.jobs[job_id].tasks[0].exit_code == 1

    def test_missing_output(self):
        cluster = SimCluster()
        cluster.fs.make_dirs("/scratch/run/out")
        cluster.inject_fault(FaultDirective(script_substring="job",
                                            missing_output=True))
        cluster.fs.make_dirs("/scratch/run/in")
        cluster.fs.write("/scratch/run/in/a.tiff", b"x")
        submit_script(cluster, "/scratch/job.sh", duration=5,
                      exports=[("IN_PATH", "/scratch/run/in"), ("OUT_PATH", "/scratch/run/out")])
        cluster.advance(10)
        assert cluster.fs.files_under("/scratch/run/out") == []

    def test_force_timeout_at_limit(self):
        # Oracle: event trace shows the transition exactly at the limit.
        cluster = SimCluster()
        cluster.inject_fault(FaultDirective(script_substring="job",
                                            forced_state=JobState.TIMEOUT))
        job_id = submit_script(cluster, "/scratch/job.sh",
                               time_limit="00:02:00", duration=5)
        events = cluster.advance(500)
        timeouts = [e for e in events if e.new_state is JobState.TIMEOUT]
        assert [(e.entry_id, e.time) for e in timeouts] == [(str(job_id), 120)]


class TestDeterminismAndSafety:
    @staticmethod
    def _run_schedule(seed):
        rng = random.Random(seed)
        cluster = SimCluster()
        for index in range(rng.randint(1, 6)):
            submit_script(
                cluster, f"/scratch/j{index}.sh",
                cpus=rng.randint(1, 4),
                mem=rng.choice([1024, 4096, 8192]),
                duration=rng.randint(1, 50),
                time_limit="00:01:00",
                array=f"0-{rng.randint(0, 3)}" if rng.random() < 0.3 else None,
            )
            cluster.advance(rng.randint(0, 20))
        cluster.advance(200)
        return cluster

    def test_byte_identical_traces(self):
        trace_a = render_event_trace(self._run_schedule(1234))
        trace_b = render_event_trace(self._run_schedule(1234))
        assert trace_a == trace_b and trace_a

    def test_resource_safety_randomized(self):
        # Node commit asserts internally; 200 mixes here, the acceptance
        # suite runs the full 1000.
        for seed in range(200):
            cluster = self._run_schedule(seed)
            for node in cluster.nodes:
                assert 0 <= node.used_cpus <= node.cpus
                assert 0 <= node.used_gpus <= node.gpus
                assert 0 <= node.used_mem <= node.mem_mb

    def test_state_transitions_in_traces(self):
        for seed in range(50):
            cluster = self._run_schedule(seed)
            last = {}
            for event in cluster.event_log:
                if event.old_state is not None:
                    assert is_valid_transition(event.old_state, event.new_state), \
                        render_event(event)
                if event.entry_id in last:
                    assert is_valid_transition(last[event.entry_id], event.new_state)
                last[event.entry_id] = event.new_state


def test_ten_thousand_task_array_runs_in_linear_time():
    # 2-cpu tasks on two 4-cpu nodes run four at a time: 2,500 waves of 5 s.
    cluster = SimCluster()
    started = time.perf_counter()
    job_id = submit_script(cluster, "/scratch/arr.sh", cpus=2, duration=5, array="0-9999")
    cluster.advance(12_500)
    elapsed = time.perf_counter() - started
    tasks = cluster.jobs[job_id].tasks
    assert cluster.clock == 12_500
    assert max(task.finish_time for task in tasks) == 12_500
    assert all(task.state is JobState.COMPLETED for task in tasks)
    assert elapsed < 5, f"10,000-task array took {elapsed:.1f} s"


def brute_force_aggregate(states):
    """Independent statement of the parent-state rule."""
    if any(s is JobState.FAILED for s in states):
        return JobState.FAILED
    if any(s is JobState.TIMEOUT for s in states):
        return JobState.TIMEOUT
    if any(not s.terminal for s in states):
        if any(s is JobState.RUNNING or s.terminal for s in states):
            return JobState.RUNNING
        return JobState.PENDING
    if any(s is JobState.CANCELLED for s in states):
        return JobState.CANCELLED
    return JobState.COMPLETED


@pytest.mark.parametrize("n", [1, 2, 3])
def test_array_aggregation_matches_brute_force_small(n):
    for combo in itertools.product(list(JobState), repeat=n):
        assert aggregate_array_states(combo) == brute_force_aggregate(combo)


def test_specified_mixed_array_example():
    # 42-style array with tasks [COMPLETED, FAILED, COMPLETED] -> FAILED.
    combo = [JobState.COMPLETED, JobState.FAILED, JobState.COMPLETED]
    assert aggregate_array_states(combo) is JobState.FAILED


def test_load_topology():
    nodes = load_topology('{"nodes": [{"cpus": 2, "mem_mb": 1024}]}')
    assert nodes == [{"cpus": 2, "gpus": 0, "mem_mb": 1024}]
    cluster = SimCluster(nodes)
    assert len(cluster.nodes) == 1


def test_default_topology_two_nodes():
    assert len(DEFAULT_NODES) == 2
    assert all(n["cpus"] == 4 for n in DEFAULT_NODES)


def test_state_file_without_newer_fields_loads():
    """A state document from before jobs carried a name and a dependency
    loads with those fields at their defaults."""
    cluster = SimCluster()
    job_id = submit_script(cluster, "/scratch/a.sh", duration=5)
    doc = cluster.to_dict()
    for job_doc in doc["jobs"]:
        for key in ("name", "dependency"):
            del job_doc[key]
    restored = SimCluster.from_dict(doc)
    job = restored.jobs[job_id]
    assert (job.name, job.dependency) == (None, None)
    restored.advance(10)
    assert job_state(restored, job_id) is JobState.COMPLETED


def mid_run_cluster():
    """A cluster stopped mid-run: a 6-task array with tasks completed and
    running, an afterok job waiting on it, a forced-FAILED job that failed,
    and a 4-task array cancelled while it ran, so some tasks of each state
    carry an exit code."""
    cluster = SimCluster()
    cluster.inject_fault(FaultDirective(script_substring="failing",
                                        forced_state=JobState.FAILED))
    array_id = submit_script(cluster, "/scratch/array.sh", cpus=2, duration=20, array="0-5")
    submit_script(cluster, "/scratch/failing.sh", duration=3)
    submit_script(cluster, "/scratch/after.sh", duration=5,
                  options=[f"--dependency=afterok:{array_id}", "--kill-on-invalid-dep=yes"])
    doomed = submit_script(cluster, "/scratch/doomed.sh", cpus=2, duration=8, array="0-3")
    cluster.advance(25)
    cluster.sim_exec(["scancel", str(doomed)])
    cluster.advance(3)
    return cluster


# mid_run_cluster().to_dict() as the simulator wrote it while SimJob stored
# its reported_state and outputs_n and SimTask its exit_code; its scripts have
# since lost the `#SIM` line that then set their run time.
OLD_STATE_FILE = os.path.join(os.path.dirname(__file__), "data",
                              "sim-state-with-stored-states.json")


def test_state_file_with_stored_states_continues_alike():
    """A state document that still carries reported_state, outputs_n and
    exit_code loads (the keys are ignored: states and exit codes follow from
    the tasks) and continues to the same events and task states as a cluster
    that never left memory."""
    with open(OLD_STATE_FILE) as handle:
        doc = json.load(handle)
    assert all("reported_state" in job and "outputs_n" in job for job in doc["jobs"])
    assert {task["exit_code"] for job in doc["jobs"] for task in job["tasks"]} == {None, 0, 1}
    live, restored = mid_run_cluster(), SimCluster.from_dict(doc)
    assert restored.to_dict() == live.to_dict()
    assert {job["id"]: job["reported_state"] for job in doc["jobs"]} == \
        {job_id: restored.job_state(job).value for job_id, job in restored.jobs.items()}
    assert [task["exit_code"] for job in doc["jobs"] for task in job["tasks"]] == \
        [task.exit_code for job in restored.jobs.values() for task in job.tasks]
    for dt in (1, 7, 30, 3000):
        assert [render_event(e) for e in restored.advance(dt)] == \
            [render_event(e) for e in live.advance(dt)]
    assert restored.to_dict() == live.to_dict()
    assert [(task.state, task.exit_code) for job in restored.jobs.values() for task in job.tasks] \
        == [(task.state, task.exit_code) for job in live.jobs.values() for task in job.tasks]


def test_state_round_trip(tmp_path):
    cluster = SimCluster()
    cluster.inject_fault(FaultDirective(script_substring="failing",
                                        forced_state=JobState.FAILED))
    cluster.inject_fault(FaultDirective(script_substring="silent", missing_output=True))
    submit_script(cluster, "/scratch/a.sh", duration=5)
    array_id = submit_script(cluster, "/scratch/array.sh", cpus=2, duration=20,
                             array="0-2")
    failing_id = submit_script(cluster, "/scratch/failing.sh", duration=3)
    silent_id = submit_script(cluster, "/scratch/silent.sh", duration=3,
                              exports=[("OUT_PATH", "/scratch/out")])
    cluster.advance(2)
    path = tmp_path / "state.json"
    cluster.save_state(str(path))
    restored = SimCluster.load_state(str(path))
    assert restored.to_dict() == cluster.to_dict()
    assert restored.fs.snapshot() == cluster.fs.snapshot()
    assert restored.clock == cluster.clock
    array = restored.jobs[array_id]
    assert array.array_spec == (0, 2)
    assert [task.state for task in array.tasks] == [JobState.RUNNING] * 3
    assert restored.jobs[failing_id].forced_state is JobState.FAILED
    assert restored.jobs[silent_id].missing_output
    assert restored.jobs[silent_id].tasks[0].state is JobState.PENDING
    restored.advance(30)
    cluster.advance(30)
    assert {j: cluster.jobs[j].parent_state() for j in cluster.jobs} == \
        {j: restored.jobs[j].parent_state() for j in restored.jobs}
    assert restored.to_dict() == cluster.to_dict()


FAULTS = [
    FaultDirective(script_substring="fail", forced_state=JobState.FAILED),
    FaultDirective(script_substring="tout", forced_state=JobState.TIMEOUT),
    FaultDirective(script_substring="kill", forced_state=JobState.CANCELLED),
    FaultDirective(script_substring="mute", missing_output=True),
]


def golden_schedule(seed):
    """One seeded mix of submissions (arrays of up to 12 tasks, zero-duration
    jobs, afterok dependencies, forced faults), advances, scancel by id and by
    name, and state-file round trips mid-run. Returns the event trace, every
    task's final (state, start, finish, node, exit code) and the file tree."""
    rng = random.Random(seed)
    cluster = SimCluster(rng.choice([None, [{"cpus": 4, "gpus": 0, "mem_mb": 8192}]]))
    for fault in FAULTS:
        cluster.inject_fault(fault)
    traces = []
    for step in range(rng.randint(4, 14)):
        action = rng.random()
        if action < 0.45 or not cluster.jobs:
            tag = rng.choice(["ok", "ok", "ok", "fail", "tout", "kill", "mute"])
            options = []
            if rng.random() < 0.4:
                options.append(f"--job-name=sb-{rng.choice('ab')}")
            if cluster.jobs and rng.random() < 0.35:
                after = rng.choice(sorted(cluster.jobs))
                options += [f"--dependency=afterok:{after}", "--kill-on-invalid-dep=yes"]
            lo = rng.randint(0, 3)
            resources = {"cpus": rng.randint(1, 4), "mem_mb": rng.choice([1024, 4096, 8192]),
                         "gpus": rng.choice([0, 0, 0, 1])}
            duration = rng.choice([0, rng.randint(1, 90)])
            rng.randint(0, 2)  # once an output count, drawn still so each seed keeps its schedule
            result = sbatch_script(
                cluster, f"/scratch/{tag}{step}.sh",
                cpus=resources["cpus"], mem=resources["mem_mb"],
                gpus=resources["gpus"], time_limit="00:01:00", duration=duration,
                array=f"{lo}-{lo + rng.randint(0, 11)}" if rng.random() < 0.4 else None,
                exports=[("OUT_PATH", f"/scratch/out{step}")], options=options,
            )
            # A GPU job on the one-node topology, which has no GPU, is refused.
            assert result.ok is fits_some_node(cluster, resources)
        elif action < 0.8:
            cluster.advance(rng.randint(0, 40))
        elif action < 0.9:
            job_id = rng.choice(sorted(cluster.jobs))
            cluster.sim_exec(["scancel", rng.choice([str(job_id), "--name=sb-a", "--name=sb-b"])])
        else:
            traces.append(render_event_trace(cluster))
            restored = SimCluster.from_dict(json.loads(json.dumps(cluster.to_dict())))
            for fault in FAULTS:
                restored.inject_fault(fault)
            cluster = restored
    cluster.advance(3000)
    traces.append(render_event_trace(cluster))
    table = [
        f"{task.entry_id} {task.state.value} {task.start_time} {task.finish_time} "
        f"{task.node} {task.exit_code}"
        for _, job in sorted(cluster.jobs.items()) for task in job.tasks
    ]
    return "\n--\n".join(traces + ["\n".join(table), cluster.fs.snapshot()])


# sha256 over golden_schedule(seed) for each block of 50 seeds. The
# scan-based scheduler that preceded the event-driven one produced the
# schedules; the digests are of its output less the summary log it wrote for
# each array as a whole, which Slurm does not write, and less every job that
# no node could hold, which sbatch now refuses: the event-driven scheduler
# gave the same digests before that refusal with such jobs left unsubmitted.
# The scripts it ran held a `#SIM` line and its jobs wrote placeholder
# outputs; without them the file tree differs and nothing else does.
GOLDEN_DIGESTS = {
    0: "aecfb8ef1675e0893a3db24f6f273676f581b2da972a2802bd3667086e64bc6d",
    50: "3d09d07095aacc72778a693412bcaec7c656b6d62192691b8e8dbb5ab81e7562",
    100: "89acf40a41ab2ebbe3c1e44b1c592c346d5928fbeff5a05d9adf136ab9c86c6c",
    150: "ec2866d7e17460d82801e6a99b06c7e1b08b2bfbc09dfc6f651b114a191ef0f7",
}


@pytest.mark.parametrize("first_seed", sorted(GOLDEN_DIGESTS))
def test_golden_traces(first_seed):
    digest = hashlib.sha256()
    for seed in range(first_seed, first_seed + 50):
        digest.update(golden_schedule(seed).encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[first_seed]


class CheckedCluster(SimCluster):
    """Checks after every command and every advance that each job's state
    from the task-state counts is its parent_state() from its tasks."""

    checks = 0

    def check(self):
        for job in self.jobs.values():
            assert self.job_state(job) is job.parent_state(), job.id
        CheckedCluster.checks += 1

    def sim_exec(self, command):
        result = super().sim_exec(command)
        self.check()
        return result

    def advance(self, dt):
        events = super().advance(dt)
        self.check()
        return events


def test_counts_give_every_job_its_parent_state(monkeypatch):
    """Every golden schedule, run on a CheckedCluster, still gives its digest."""
    monkeypatch.setattr(sys.modules[__name__], "SimCluster", CheckedCluster)
    for first_seed, expected in GOLDEN_DIGESTS.items():
        digest = hashlib.sha256()
        for seed in range(first_seed, first_seed + 50):
            digest.update(golden_schedule(seed).encode())
        assert digest.hexdigest() == expected
    assert CheckedCluster.checks > 1000


def test_unzip_holds_stored_entries_once(tmp_path):
    """The submission's `unzip -q` and `rm -f` of an uploaded archive of
    stored entries allocate well under one copy of the payload: each entry
    is a view of the archive, which lives on in them once it is removed."""
    payload = [bytes(range(256)) * (4 << 10) * k for k in (1, 2, 5)]  # 8 MiB in all
    local = tmp_path / "input.zip"
    with zipfile.ZipFile(local, "w", zipfile.ZIP_STORED) as archive:
        for k, data in enumerate(payload):
            archive.writestr(f"in/{k}.tiff", data)
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs("/scratch/data")
    endpoint.put_file(str(local), "/scratch/data/r1.zip")
    size = local.stat().st_size
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        unpacked, removed = endpoint.exec_many([
            ["unzip", "-q", "/scratch/data/r1.zip", "-d", "/scratch/data/r1"],
            ["rm", "-f", "/scratch/data/r1.zip"]])
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert unpacked.ok and removed.ok
    assert peak < size / 4, (peak, size)
    fs = endpoint.cluster.fs
    assert fs.files_under("/scratch/data") == ["r1/in/0.tiff", "r1/in/1.tiff", "r1/in/2.tiff"]
    assert [fs.read(f"/scratch/data/r1/in/{k}.tiff") for k in range(3)] == payload
    restored = SimCluster.from_dict(json.loads(json.dumps(endpoint.cluster.to_dict())))
    assert restored.fs.snapshot() == fs.snapshot()


def test_large_upload_is_never_read_whole(tmp_path):
    """A 16 MiB upload of stored entries goes through put_file, `unzip -q`,
    `sha256sum`, `rm -f` and get_file in pieces: the simulator copies,
    hashes and extracts it without ever holding a whole file, so the peak
    stays below a quarter of the upload."""
    payload = [(bytes([k]) + bytes(range(255))) * (8 << 10) for k in range(8)]  # 2 MiB each
    local = tmp_path / "input.zip"
    with zipfile.ZipFile(local, "w", zipfile.ZIP_STORED) as archive:
        for k, data in enumerate(payload):
            archive.writestr(f"in/{k}.tiff", data)
    endpoint = SimEndpoint(SimCluster())
    endpoint.make_dirs("/scratch/data")
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        endpoint.put_file(str(local), "/scratch/data/r1.zip")
        unpacked, digest, removed = endpoint.exec_many([
            ["unzip", "-q", "/scratch/data/r1.zip", "-d", "/scratch/data/r1"],
            ["sha256sum", "/scratch/data/r1/in/7.tiff"],
            ["rm", "-f", "/scratch/data/r1.zip"]])
        endpoint.get_file("/scratch/data/r1/in/7.tiff", str(tmp_path / "7.tiff"))
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert unpacked.ok and digest.ok and removed.ok
    assert peak < 4 << 20, peak
    assert digest.stdout.split()[0] == hashlib.sha256(payload[7]).hexdigest()
    assert (tmp_path / "7.tiff").read_bytes() == payload[7]
    fs = endpoint.cluster.fs
    assert fs.files_under("/scratch/data") == [f"r1/in/{k}.tiff" for k in range(8)]
    assert [fs.read(f"/scratch/data/r1/in/{k}.tiff") for k in range(8)] == payload
    restored = SimCluster.from_dict(json.loads(json.dumps(endpoint.cluster.to_dict())))
    assert restored.fs.snapshot() == fs.snapshot()


def expand_sacct(stdout):
    """(entry id, state token) of every task that sacct output names: a
    plain line names one task, an `<id>_[<ranges>]|PENDING` record each
    index in its comma-separated <lo>-<hi> or <k> ranges."""
    tasks = []
    for line in stdout.splitlines():
        entry_id, _, token = line.partition("|")
        parent, bracket, ranges = entry_id.partition("_[")
        if not bracket:
            tasks.append((entry_id, token))
            continue
        assert token == "PENDING" and ranges.endswith("]"), line
        for part in ranges[:-1].split(","):
            lo, _, hi = part.partition("-")
            tasks.extend((f"{parent}_{k}", token) for k in range(int(lo), int(hi or lo) + 1))
    return tasks


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.integers(0, 60), st.booleans()), min_size=1, max_size=8),
       dependent=st.booleans())
def test_pending_tasks_are_a_suffix_and_sacct_names_every_task_state(seed, steps, dependent):
    """Over the random schedules of criteria 7 and 8, on drawn nodes, with
    cancels between advances and an array that waits on another job: every
    job's pending tasks are a suffix of its tasks, sacct's lines, each
    pending record expanded, name exactly the tasks of the listed jobs, each
    once, in its state, and squeue's, asked for the name the listed jobs
    carry among jobs of another name, exactly those not ended. The `-j
    <ids>` forms of squeue and sacct are refused."""
    rng = random.Random(seed)
    cluster = SimCluster(nodes=[{"cpus": rng.randint(1, 4), "gpus": rng.randint(0, 1),
                                 "mem_mb": rng.choice([2048, 8192])}
                                for _ in range(rng.randint(1, 3))])
    job_ids = random_schedule(cluster, rng, "p", ["--job-name=p"])
    random_schedule(cluster, rng, "q", ["--job-name=q"])
    if dependent and job_ids:
        result = sbatch_script(
            cluster, "/scratch/p-after.sh", duration=rng.randint(1, 30), array="0-3",
            options=["--job-name=p", f"--dependency=afterok:{rng.choice(job_ids)}",
                     "--kill-on-invalid-dep=yes"])
        job_ids.append(int(result.stdout.split()[-1]))
    for dt, cancel in steps:
        cluster.advance(dt)
        if cancel and job_ids:
            cluster.sim_exec(["scancel", str(rng.choice(job_ids))])
        for job in cluster.jobs.values():
            states = [task.state for task in job.tasks]
            first = next((k for k, state in enumerate(states) if state is JobState.PENDING),
                         len(states))
            assert all(state is JobState.PENDING for state in states[first:]), (job.id, states)
        listed = ",".join(map(str, job_ids))
        assert sorted(expand_sacct(sacct(cluster, "p"))) == sorted(
            (task.entry_id, task.state.value)
            for job_id in job_ids for task in cluster.jobs[job_id].tasks)
        # squeue names, in the same records, exactly the tasks not ended.
        queued = cluster.sim_exec(["squeue", "-a", "-h", "--name=p", "-o", "%i"]).stdout
        assert sorted(entry for entry, _ in expand_sacct(queued.replace("\n", "|PENDING\n"))) \
            == sorted(task.entry_id for job_id in job_ids
                      for task in cluster.jobs[job_id].tasks if not task.state.terminal)
        assert cluster.sim_exec(["squeue", "-h", "-j", listed, "-o", "%i"]).exit_code == 2
        assert cluster.sim_exec(["sacct", "-n", "-P", "-X", "-o", "JobID,State",
                                 "-j", listed]).exit_code == 2
