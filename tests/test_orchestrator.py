import collections
import dataclasses
import glob
import io
import os
import shutil
import subprocess
import zipfile

import pytest

from slurmbridge import orchestrator as orch
from slurmbridge import slurm
from slurmbridge.errors import (
    AccountingUnavailable,
    CollisionError,
    ConnectionLost,
    DuplicateId,
    InvalidBatchSize,
    MissingInput,
    NoResults,
)
from slurmbridge.simslurm import FaultDirective, SimCluster, SimEndpoint
from slurmbridge.states import JobState
from slurmbridge.transport import DEFAULT_DEADLINE_S, ExecResult, unframe_commands
from tests.conftest import make_tiff_inputs, make_zarr_inputs
from tests.test_slurm_client import DAMAGES, DamagesStream, record_launches


@pytest.fixture
def run_env(sample_profile_registry, cellpose_descriptor):
    profile, registry = sample_profile_registry
    endpoint = SimEndpoint(SimCluster())
    slurm.init_environment(endpoint, profile, registry)
    return endpoint, profile, registry, cellpose_descriptor


def tiff_items(tmp_path, count, prefix="img"):
    make_tiff_inputs(str(tmp_path / "inputs"), count, prefix=prefix)
    return orch.scan_input_dir(str(tmp_path / "inputs"))


class CountingEndpoint(SimEndpoint):
    """Counts remote calls and sleeps by kind (execs by program name, so an
    exec_many counts as one `sh`)."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.counts = collections.Counter()

    def _tally(self, kind):
        self.counts[kind] += 1

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        self._tally(command[0])
        return super().exec(command, timeout)

    def put_file(self, local, remote):
        self._tally("put_file")
        return super().put_file(local, remote)

    def get_file(self, remote, local):
        self._tally("get_file")
        return super().get_file(remote, local)

    def path_exists(self, remote):
        self._tally("path_exists")
        return super().path_exists(remote)

    def make_dirs(self, remote):
        self._tally("make_dirs")
        return super().make_dirs(remote)

    def sleep(self, seconds):
        self._tally("sleep")
        return super().sleep(seconds)


class FlakyLink(SimEndpoint):
    """Loses the link on each sacct call whose entry in failures is true
    (calls past the end of the list go through); with lose_submission,
    raises lost_with right after the first launch holding an sbatch has run
    remotely: a plain one, or one framed by exec_many, with or without a
    guard before it; and with lose_retrieval, raises ConnectionLost right
    after the first launch holding a base64 (the retrieval launch, which
    also tears the run down) has run remotely."""

    def __init__(self, cluster, failures=(), lose_submission=False, lost_with=ConnectionLost,
                 lose_retrieval=False):
        super().__init__(cluster)
        self.failures = iter(failures)
        self.lose_submission = lose_submission
        self.lost_with = lost_with
        self.lose_retrieval = lose_retrieval

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        if command[0] == "sacct" and next(self.failures, False):
            raise ConnectionLost("accounting link dropped")
        result = super().exec(command, timeout)
        framed = unframe_commands(command[-1]) if command[0] == "sh" else None
        programs = {argv[0] for argv in [command] + ([*framed[1], *framed[2]] if framed else [])}
        if self.lose_submission and "sbatch" in programs:
            self.lose_submission = False
            raise self.lost_with("link dropped after the submission ran")
        if self.lose_retrieval and "base64" in programs:
            self.lose_retrieval = False
            raise ConnectionLost("link dropped after the retrieval ran")
        return result


class ReportsCompleting(SimEndpoint):
    """Rewrites COMPLETED to COMPLETING in the first sacct answer that
    reports it, as a real cluster does while a finished job's epilog runs."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.rewritten = False

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        result = super().exec(command, timeout)
        if command[0] == "sacct" and not self.rewritten and "|COMPLETED\n" in result.stdout:
            self.rewritten = True
            return dataclasses.replace(
                result, stdout=result.stdout.replace("|COMPLETED\n", "|COMPLETING\n"))
        return result


def assert_no_job_outlives_its_data(cluster, time_limit_min):
    """Every job is terminal, and running the clock on for 10x the time
    limit writes nothing under data/."""
    assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
    cluster.advance(10 * time_limit_min * 60)
    assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
            if path.startswith("/scratch/omero/data/")] == []


def batch_failures(record):
    """batch index -> error class name, from the run's journal."""
    failed = {}
    for _, stage, detail in record.stage_history:
        if stage == "batch-failed":
            batch, error = detail.split(" ", 2)[:2]
            failed[int(batch.split("=")[1])] = error.rstrip(":")
    return failed


def batch_errors(record):
    """batch index -> error class name, from the batch records."""
    return {b.index: type(b.error).__name__ for b in record.batches if b.error is not None}


def fast_options(**overrides):
    defaults = dict(poll_interval_s=5, sim_duration_s=20)
    defaults.update(overrides)
    return orch.RunOptions(**defaults)


class TestPackInputs:
    def test_tiff_layout(self, tmp_path):
        items = tiff_items(tmp_path, 2)
        zip_path = orch.pack_inputs(items, str(tmp_path / "staging"))
        with zipfile.ZipFile(zip_path) as archive:
            assert archive.namelist() == ["in/img00.tiff", "in/img01.tiff"]

    def test_batch_prefixes_and_scripts_stored(self, tmp_path):
        items = tiff_items(tmp_path, 3)
        prefix_of = {"img00": "batch0/", "img01": "batch0/", "img02": "batch1/"}
        scripts = {"batch0/job.sh": "#!/bin/bash\n", "batch1/job.sh": "#!/bin/bash\n"}
        zip_path = orch.pack_inputs(items, str(tmp_path / "staging"), prefix_of, scripts)
        with zipfile.ZipFile(zip_path) as archive:
            assert archive.namelist() == [
                "batch0/in/img00.tiff", "batch0/in/img01.tiff", "batch1/in/img02.tiff",
                "batch0/job.sh", "batch1/job.sh",
            ]
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
            assert archive.read("batch1/in/img02.tiff") == \
                open(items[2].local_path, "rb").read()

    def test_duplicate_ids(self, tmp_path):
        items = tiff_items(tmp_path, 1)
        with pytest.raises(DuplicateId):
            orch.pack_inputs(items + items, str(tmp_path / "staging"))

    def test_missing_input(self, tmp_path):
        item = orch.InputItem("ghost", str(tmp_path / "ghost.tiff"),
                              orch.InputFormat.TIFF_2D)
        with pytest.raises(MissingInput):
            orch.pack_inputs([item], str(tmp_path / "staging"))

    def test_zarr_tree_entries(self, tmp_path):
        # Oracle: enumerate the source tree and compare entry sets.
        make_zarr_inputs(str(tmp_path / "inputs"), 1, chunks=5)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        zip_path = orch.pack_inputs(items, str(tmp_path / "staging"))
        source_files = []
        root = items[0].local_path
        for dirpath, _, files in os.walk(root):
            for name in files:
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                source_files.append(f"in/vol00.zarr/{rel}".replace(os.sep, "/"))
        with zipfile.ZipFile(zip_path) as archive:
            assert sorted(archive.namelist()) == sorted(source_files)
        assert len(source_files) >= 6  # 5 chunks + .zattrs


class TestPlanBatches:
    def test_greedy_chunking(self, tmp_path):
        # Oracle: ceil(12/5) = 3 batches sized [5, 5, 2].
        items = tiff_items(tmp_path, 12)
        batches = orch.plan_batches(items, 5)
        assert [len(b) for b in batches] == [5, 5, 2]
        flattened = [i for batch in batches for i in batch]
        assert flattened == [item.id for item in items]

    def test_single_batch(self, tmp_path):
        items = tiff_items(tmp_path, 3)
        assert [len(b) for b in orch.plan_batches(items, 10)] == [3]

    def test_empty(self):
        assert orch.plan_batches([], 4) == []

    def test_invalid_size(self):
        with pytest.raises(InvalidBatchSize):
            orch.plan_batches([], 0)


class TestRunWorkflow:
    def test_single_batch_success(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 4)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.DONE
        assert len(record.batches) == 1
        assert record.batches[0].conversion_handle is None
        zips = [p for p in record.output_artifacts if p.endswith(".zip")]
        assert len(zips) == 1
        with zipfile.ZipFile(zips[0]) as archive:
            assert len(archive.namelist()) == 4

    def test_forced_failure_retrieves_log_only(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(
            FaultDirective(script_substring="job.sh",
                           forced_state=JobState.FAILED))
        items = tiff_items(tmp_path, 2)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.FAILED
        assert record.output_artifacts
        assert all(p.endswith(".log") for p in record.output_artifacts)

    def test_zero_items_done_without_remote_activity(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        before = endpoint.cluster.fs.snapshot()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, [], 1, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.DONE
        assert endpoint.cluster.fs.snapshot() == before
        assert not endpoint.cluster.jobs


class TestConversionPath:
    def test_zarr_inputs_trigger_array_before_workflow(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        make_zarr_inputs(str(tmp_path / "inputs"), 6)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.DONE
        batch = record.batches[0]
        assert batch.conversion_handle is not None
        conv_job = endpoint.cluster.jobs[batch.conversion_handle.job_id]
        assert conv_job.array_spec == (0, 5)
        # Conversion completed before the workflow job started.
        conv_end = max(t.finish_time for t in conv_job.tasks)
        wf_job = endpoint.cluster.jobs[batch.workflow_handle.job_id]
        assert wf_job.tasks[0].start_time >= conv_end

    def test_failed_conversion_returns_its_log(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(
            FaultDirective(script_substring="batch0/convert.sh",
                           forced_state=JobState.FAILED))
        make_zarr_inputs(str(tmp_path / "inputs"), 4)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        failed = record.batches[0]
        # Slurm cancelled the dependent workflow job before it could start.
        workflow_job = endpoint.cluster.jobs[failed.workflow_handle.job_id]
        assert workflow_job.parent_state() is JobState.CANCELLED
        assert workflow_job.tasks[0].start_time is None
        conv_id = failed.conversion_handle.job_id
        # The array's task logs come back, and the batch keeps task 0's;
        # Slurm writes no log for the array as a whole.
        assert os.path.basename(failed.logfile) == f"omero-job-{conv_id}_0.log"
        assert failed.logfile in record.output_artifacts
        with open(failed.logfile) as handle:
            assert handle.read().splitlines()[::2] == [
                f"job {conv_id}_0 script {failed.remote_dir}/convert.sh",
                "final state FAILED exit 1"]
        assert not any(name.endswith(f"/omero-job-{conv_id}.log")
                       for name in endpoint.cluster.fs.files)
        assert batch_errors(record) == batch_failures(record) == {0: "ConversionFailed"}

    def test_failed_conversion_leaves_no_task_running(self, run_env, tmp_path):
        # Six 2-CPU tasks on 8 CPUs: the array reads FAILED once the first
        # four failed, while the last two still run.
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(
            FaultDirective(script_substring="batch0/convert.sh",
                           forced_state=JobState.FAILED))
        make_zarr_inputs(str(tmp_path / "inputs"), 6)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert batch_errors(record) == {0: "ConversionFailed"}
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_skip_conversion(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        make_zarr_inputs(str(tmp_path / "inputs"), 2)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(skip_conversion=True),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.batches[0].conversion_handle is None
        assert record.overall_state is orch.RunStage.DONE


class TestRunWorkflowBatched:
    def test_three_batches_all_succeed(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 12)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 5, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.DONE
        # Oracle: simulator job table shows exactly 3 workflow submissions.
        workflow_jobs = [j for j in endpoint.cluster.jobs.values()
                         if j.script_path.endswith("job.sh")]
        assert len(workflow_jobs) == 3
        zips = sorted(glob.glob(str(tmp_path / "out" / "*.zip")))
        assert [os.path.basename(z) for z in zips] == [
            f"{record.run_id}_batch{i}.zip" for i in range(3)
        ]

    def test_one_batch_fails_partial(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(
            FaultDirective(script_substring="batch1/job.sh",
                           forced_state=JobState.FAILED))
        items = tiff_items(tmp_path, 12)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 5, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        zips = [p for p in record.output_artifacts if p.endswith(".zip")]
        assert len(zips) == 2
        failed = record.batches[1]
        assert failed.result_zip is None
        assert failed.logfile and os.path.exists(failed.logfile)
        assert failed.job is failed.workflow_handle
        assert batch_errors(record) == batch_failures(record) == {1: "WorkflowFailed"}
        assert failed.error.logfile == failed.logfile

    def test_missing_output_fails_only_its_batch(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(
            FaultDirective(script_substring="batch1/job.sh", missing_output=True))
        items = tiff_items(tmp_path, 12)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 5, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        assert batch_errors(record) == batch_failures(record) == {1: "RetrievalFailed"}
        assert record.batches[1].state is JobState.COMPLETED
        assert record.batches[1].result_zip is None
        for index in (0, 2):
            batch = record.batches[index]
            with zipfile.ZipFile(batch.result_zip) as archive:
                assert sorted(archive.namelist()) == sorted(
                    f"{item_id}_mask.tiff" for item_id in batch.items)

    def test_failed_upload_removal_keeps_results(self, run_env, tmp_path, monkeypatch):
        class UploadUnremovable(SimCluster):
            refused = []

            def sim_exec(self, command):
                if command[:2] == ["rm", "-f"] and command[2].endswith(".zip"):
                    self.refused.append(command[2])
                    return ExecResult(1, "", "rm: cannot remove: Permission denied\n", 0)
                return super().sim_exec(command)

        fetch_results = slurm.fetch_results

        def keeps_bundle(*args):
            bundle, removed = fetch_results(*args)
            with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
                endpoint.bundle = archive.namelist()
            return bundle, removed

        monkeypatch.setattr(slurm, "fetch_results", keeps_bundle)
        _, profile, registry, descriptor = run_env
        endpoint = SimEndpoint(UploadUnremovable())
        slurm.init_environment(endpoint, profile, registry)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor,
            "cellpose", {}, tiff_items(tmp_path, 6), 3, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        run_dir = f"/scratch/omero/data/{record.run_id}"
        assert UploadUnremovable.refused == [run_dir + ".zip"]
        assert record.overall_state is orch.RunStage.DONE
        for batch in record.batches:
            with zipfile.ZipFile(batch.result_zip) as archive:
                assert sorted(archive.namelist()) == sorted(
                    f"{item_id}_mask.tiff" for item_id in batch.items)
        # The bundle holds the outputs and logs only, never an input.
        assert len(endpoint.bundle) == 6 + 2
        assert all(name.split("/")[-2] in ("out", record.run_id) for name in endpoint.bundle)
        assert [path for path in list(endpoint.cluster.fs.files) + list(endpoint.cluster.fs.dirs)
                if path.startswith(run_dir)] == []

    def test_link_lost_after_upload_leaves_no_remote_zip(self, run_env, tmp_path):
        class LosesUnpack(SimEndpoint):
            def exec(self, command, timeout=DEFAULT_DEADLINE_S):
                if command[0] == "sh" and "; unzip " in command[-1]:
                    raise ConnectionLost("link dropped after the upload")
                return super().exec(command, timeout)

        endpoint, profile, registry, descriptor = run_env
        record = orch.run_workflow_batched(
            LosesUnpack(endpoint.cluster), profile, registry, descriptor,
            "cellpose", {}, tiff_items(tmp_path, 4), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == {0: "TransferFailed", 1: "TransferFailed"}
        assert endpoint.cluster.jobs == {}
        assert [path for path in endpoint.cluster.fs.files
                if path.startswith("/scratch/omero/data/")] == []

    @pytest.mark.parametrize("refused,step", [("mkdir", "mkdir"), ("unzip", "unpack")])
    def test_failed_unpack_submits_no_job(self, run_env, tmp_path, refused, step):
        class Refuses(SimCluster):
            """Fails the run's mkdir or unzip after it did its work, as one
            that runs out of quota on its last path does: the scripts are
            there, so only the guard keeps sbatch from running."""

            def sim_exec(self, command):
                result = super().sim_exec(command)
                if command[0] == refused and "/scratch/omero/data/" in " ".join(command):
                    return ExecResult(2, "", f"{refused}: refused\n", 0)
                return result

        _, profile, registry, descriptor = run_env
        endpoint = SimEndpoint(Refuses())
        slurm.init_environment(endpoint, profile, registry)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor,
            "cellpose", {}, tiff_items(tmp_path, 4), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert endpoint.cluster.jobs == {}
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(record) == {
            0: "TransferFailed", 1: "TransferFailed"}
        assert all(f"remote {step} failed: {refused}: refused" in str(batch.error)
                   for batch in record.batches)
        assert [path for path in endpoint.cluster.fs.files
                if path.startswith("/scratch/omero/data/")] == []

    @pytest.mark.skipif(shutil.which("zip") is None, reason="Info-ZIP zip not installed")
    def test_results_split_from_info_zip_archive(self, tmp_path):
        run_dir = tmp_path / "scratch" / "data" / "run"
        files = {"batch0/out/a_mask.tiff": b"a", "batch0/in/a.tiff": b"in",
                 "batch1/out/b_mask.tiff": b"b", "batch1/out/sub/c.tiff": b"c"}
        for name, data in files.items():
            (run_dir / name).parent.mkdir(parents=True, exist_ok=True)
            (run_dir / name).write_bytes(data)
        (run_dir / "batch2" / "out").mkdir(parents=True)
        results = str(run_dir / "results.zip")
        subprocess.run(["zip", "-q", "-r", "-D", results, str(run_dir)], check=True)
        split = {}
        with zipfile.ZipFile(results) as archive:
            for index in range(3):
                prefix = slurm.zip_entry_name(str(run_dir / f"batch{index}" / "out")) + "/"
                local = str(tmp_path / f"batch{index}.zip")
                if orch._split_results(archive, prefix, local):
                    with zipfile.ZipFile(local) as part:
                        split[index] = {n: part.read(n) for n in part.namelist()}
        assert split == {0: {"a_mask.tiff": b"a"},
                         1: {"b_mask.tiff": b"b", "sub/c.tiff": b"c"}}

    @pytest.mark.parametrize("batch_size,batches,zarr", [
        pytest.param(12, 1, False, id="12-1"), pytest.param(3, 4, False, id="3-4"),
        pytest.param(1, 12, False, id="1-12"), pytest.param(3, 4, True, id="3-4-zarr")])
    def test_remote_calls_fixed_per_run(self, run_env, tmp_path, monkeypatch,
                                        batch_size, batches, zarr):
        _, profile, registry, descriptor = run_env
        endpoint = CountingEndpoint(run_env[0].cluster)
        monkeypatch.setattr(slurm, "cleanup_run", None)  # a completed run never calls it
        if zarr:
            make_zarr_inputs(str(tmp_path / "inputs"), 12)
            items = orch.scan_input_dir(str(tmp_path / "inputs"))
        else:
            items = tiff_items(tmp_path, 12)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, batch_size, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert record.overall_state is orch.RunStage.DONE
        assert len(endpoint.cluster.jobs) == (2 if zarr else 1) * batches
        counts = dict(endpoint.counts)
        # No poll is wasted: one after each sleep.
        assert counts.pop("sacct") == counts.pop("sleep")
        # One archive up, then one launch to make the dirs, unpack it and
        # submit every job (a second launch for the workflow jobs that wait
        # on a conversion), and one launch that zips every output and log,
        # sends the bundle back and removes the run's data.
        assert counts == {"put_file": 1, "sh": 3 if zarr else 2}
        assert [path for path in endpoint.cluster.fs.files
                if path.startswith("/scratch/omero/data/")] == []

    def test_equivalence_when_batch_size_covers_items(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 3)
        single = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(),
            local_output_dir=str(tmp_path / "out-single"),
        )
        batched = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 50, options=fast_options(),
            local_output_dir=str(tmp_path / "out-batched"),
        )
        assert orch.record_signature(single) == orch.record_signature(batched)

    def test_item_conservation(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 11)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 4, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        scattered = sorted(i for b in record.batches for i in b.items)
        assert scattered == sorted(item.id for item in items)

    def test_remote_data_cleaned_up(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 6)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 3, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        assert not endpoint.path_exists(f"/scratch/omero/data/{record.run_id}")
        assert endpoint.path_exists("/scratch/omero/logs")

    def test_stage_transitions_ordered(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 4)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
        )
        order = ["Preparing", "Transferring", "Queued", "Running",
                 "Retrieving", "Done"]
        stage_rows = [s for _, s, _ in record.stage_history if s in order]
        assert stage_rows == order

    def test_journal_written(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 2)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 2,
            options=fast_options(journal_dir=str(tmp_path / "runs")),
            local_output_dir=str(tmp_path / "out"),
        )
        journal = tmp_path / "runs" / f"{record.run_id}.journal"
        assert journal.exists()
        lines = journal.read_text().splitlines()
        assert lines[0].split("\t")[1] == "Preparing"
        assert lines[-1].split("\t")[1] == "Done"


class TestRunLifecycle:
    def run(self, endpoint, run_env, tmp_path, **options):
        _, profile, registry, descriptor = run_env
        return orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, tiff_items(tmp_path, 4), 2, options=fast_options(**options),
            local_output_dir=str(tmp_path / "out"),
        )

    def test_two_accounting_failures_cost_only_rounds(self, run_env, tmp_path):
        endpoint = FlakyLink(run_env[0].cluster, [True, True])
        record = self.run(endpoint, run_env, tmp_path)
        assert list(endpoint.failures) == []
        assert record.overall_state is orch.RunStage.DONE
        assert all(batch.result_zip for batch in record.batches)

    def test_completing_job_is_polled_again(self, run_env, tmp_path):
        endpoint = ReportsCompleting(run_env[0].cluster)
        record = self.run(endpoint, run_env, tmp_path)
        assert endpoint.rewritten
        assert record.overall_state is orch.RunStage.DONE
        assert all(batch.result_zip for batch in record.batches)

    def test_third_accounting_failure_cancels_then_raises(self, run_env, tmp_path):
        cluster = run_env[0].cluster
        with pytest.raises(AccountingUnavailable):
            self.run(FlakyLink(cluster, [True, True, True]), run_env, tmp_path)
        assert len(cluster.jobs) == 2
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_lost_submission_answer_orphans_no_job(self, run_env, tmp_path):
        cluster = run_env[0].cluster
        cluster.inject_fault(FaultDirective(script_substring="batch0/job.sh",
                                            forced_state=JobState.TIMEOUT))
        endpoint = FlakyLink(cluster, lose_submission=True)
        record = self.run(endpoint, run_env, tmp_path)
        assert not endpoint.lose_submission
        assert len(cluster.jobs) == 2
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)
        # The client never learned either job id, so no batch can succeed.
        assert record.overall_state is orch.RunStage.FAILED
        assert "cancel" in [stage for _, stage, _ in record.stage_history]

    def test_interrupt_after_submission_orphans_no_job(self, run_env, tmp_path):
        # The run is interrupted before it records a single job id.
        cluster = run_env[0].cluster
        endpoint = FlakyLink(cluster, lose_submission=True, lost_with=KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            self.run(endpoint, run_env, tmp_path)
        assert len(cluster.jobs) == 2
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_failure_teardown_is_one_launch(self, run_env, tmp_path):
        endpoint = run_env[0]
        endpoint.cluster.inject_fault(FaultDirective(script_substring="batch0/job.sh",
                                                     forced_state=JobState.FAILED))
        launches = record_launches(endpoint)
        record = self.run(endpoint, run_env, tmp_path)
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        # The last launch brings the bundle back and tears the run down.
        run_dir = f"/scratch/omero/data/{record.run_id}"
        fetch, digest, stream, *teardown = unframe_commands(launches[-1][-1])[1]
        assert (fetch[0], digest, stream) == (
            "zip", ["sha256sum", run_dir + "/bundle.zip"], ["base64", run_dir + "/bundle.zip"])
        assert teardown == [
            ["scancel", f"--name=sb-{record.run_id}"],
            ["test", "-e", run_dir], ["rm", "-rf", run_dir],
            ["test", "-e", run_dir + ".zip"], ["rm", "-rf", run_dir + ".zip"],
            ["test", "-e", run_dir + ".zip.part"], ["rm", "-rf", run_dir + ".zip.part"]]
        assert [stage for _, stage, _ in record.stage_history].count("cleanup") == 1

    @pytest.mark.parametrize("damage", ["flipped", "truncated"])
    def test_damaged_bundle_fails_retrieval(self, run_env, tmp_path, damage):
        _, profile, registry, descriptor = run_env
        endpoint = SimEndpoint(DamagesStream(DAMAGES[damage]))
        slurm.init_environment(endpoint, profile, registry)
        record = self.run(endpoint, run_env, tmp_path)
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(record) == {
            0: "RetrievalFailed", 1: "RetrievalFailed"}
        assert all("sha256" in str(batch.error) for batch in record.batches)
        assert glob.glob(str(tmp_path / "out" / "*.zip")) == []
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_lost_retrieval_answer_tears_down_again(self, run_env, tmp_path):
        # The retrieval launch ran, but its answer was lost: the run cancels
        # and removes once more, which finds nothing left.
        cluster = run_env[0].cluster
        endpoint = FlakyLink(cluster, lose_retrieval=True)
        record = self.run(endpoint, run_env, tmp_path)
        assert not endpoint.lose_retrieval
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == {0: "RetrievalFailed", 1: "RetrievalFailed"}
        rows = [(stage, detail) for _, stage, detail in record.stage_history
                if stage in ("cancel", "cleanup")]
        assert rows == [("cancel", f"name=sb-{record.run_id} job_ids="), ("cleanup", "removed=0")]
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_completed_run_cancels_nothing(self, run_env, tmp_path):
        launches = record_launches(run_env[0])
        record = self.run(run_env[0], run_env, tmp_path)
        assert record.overall_state is orch.RunStage.DONE
        assert not any("scancel" in " ".join(command) for command in launches)

    def test_deadline_cancels_live_jobs(self, run_env, tmp_path):
        endpoint, _, registry, _ = run_env
        record = self.run(endpoint, run_env, tmp_path, deadline_s=5, sim_duration_s=600)
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(record) == {
            0: "WorkflowFailed", 1: "WorkflowFailed"}
        assert "cancel" in [stage for _, stage, _ in record.stage_history]
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_deadline_before_workflow_logs_keeps_conversion_log(self, run_env, tmp_path):
        # The conversion completed by the deadline; the workflow job wrote no
        # log yet, so the batch keeps the conversion's.
        endpoint, profile, registry, descriptor = run_env
        make_zarr_inputs(str(tmp_path / "inputs"), 4)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(deadline_s=5, sim_duration_s=600),
            local_output_dir=str(tmp_path / "out"),
        )
        assert batch_errors(record) == batch_failures(record) == {0: "WorkflowFailed"}
        batch = record.batches[0]
        conv_id = batch.conversion_handle.job_id
        assert endpoint.cluster.jobs[conv_id].parent_state() is JobState.COMPLETED
        # An array writes one log per task and none of its own: task 0's is kept.
        assert os.path.basename(batch.logfile) == f"omero-job-{conv_id}_0.log"
        assert sorted(os.listdir(tmp_path / "out")) == [
            f"omero-job-{conv_id}_{k}.log" for k in range(4)]
        assert batch.logfile in record.output_artifacts
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)


class TestImportResults:
    def _record_with_zip(self, tmp_path, entries, items=()):
        zip_path = str(tmp_path / "r_batch0.zip")
        with zipfile.ZipFile(zip_path, "w") as archive:
            for name, data in entries.items():
                archive.writestr(name, data)
        return orch.RunRecord(
            run_id="r", workflow="w", version="v1", values={},
            items=list(items),
            batches=[orch.BatchRun(index=0, items=[], result_zip=zip_path,
                                   state=JobState.COMPLETED)],
        )

    def test_single_zip_copies(self, tmp_path):
        record = self._record_with_zip(tmp_path, {"a.tiff": b"x"})
        written = orch.import_results(record, str(tmp_path / "dst"), "SingleZip")
        assert [os.path.basename(p) for p in written] == ["r_batch0.zip"]

    def test_images_folder_unpacks(self, tmp_path):
        record = self._record_with_zip(
            tmp_path, {"a.tiff": b"x", "masks/b.tiff": b"y"})
        written = orch.import_results(record, str(tmp_path / "dst"), "ImagesFolder")
        assert sorted(os.path.relpath(p, tmp_path / "dst") for p in written) == [
            "r/a.tiff", "r/masks/b.tiff",
        ]

    def test_sidecar_matching(self, tmp_path):
        # Oracle: stem-matching rule applied by hand over fixture names.
        inputs_dir = tmp_path / "inputs"
        make_tiff_inputs(str(inputs_dir), 1, prefix="a")  # a00.tiff
        item = orch.InputItem("a", str(inputs_dir / "a00.tiff"),
                              orch.InputFormat.TIFF_2D)
        record = self._record_with_zip(
            tmp_path, {"a_mask.tiff": b"m", "stray.tiff": b"s"}, items=[item])
        written = orch.import_results(
            record, str(tmp_path / "dst"), "SidecarAttachments")
        assert str(inputs_dir / "a_mask.tiff") in written
        assert str(tmp_path / "dst" / "r" / "unmatched" / "stray.tiff") in written

    def test_no_results(self, tmp_path):
        record = orch.RunRecord(run_id="r", workflow="w", version="v",
                                values={}, items=[],
                                batches=[orch.BatchRun(index=0, items=[])])
        with pytest.raises(NoResults):
            orch.import_results(record, str(tmp_path / "dst"), "ImagesFolder")

    def test_collision_never_overwrites(self, tmp_path):
        record = self._record_with_zip(tmp_path, {"a.tiff": b"x"})
        dst = tmp_path / "dst"
        orch.import_results(record, str(dst), "ImagesFolder")
        with pytest.raises(CollisionError):
            orch.import_results(record, str(dst), "ImagesFolder")


class TestFormatDetection:
    def test_extensions(self, tmp_path):
        make_tiff_inputs(str(tmp_path), 1)
        assert orch.detect_format(str(tmp_path / "img00.tiff")) is \
            orch.InputFormat.TIFF_2D
        ome = tmp_path / "x.ome.tiff"
        ome.write_bytes(b"II*")
        assert orch.detect_format(str(ome)) is orch.InputFormat.OME_TIFF
        make_zarr_inputs(str(tmp_path), 1)
        assert orch.detect_format(str(tmp_path / "vol00.zarr")) is \
            orch.InputFormat.ZARR
        assert orch.detect_format(str(tmp_path / "nope.txt")) is None

    def test_scan_ids_strip_extensions(self, tmp_path):
        make_tiff_inputs(str(tmp_path / "d"), 2)
        make_zarr_inputs(str(tmp_path / "d"), 1)
        items = orch.scan_input_dir(str(tmp_path / "d"))
        assert [i.id for i in items] == ["img00", "img01", "vol00"]

    def test_every_suffix_spelling_names_its_entry(self, tmp_path):
        # Short and upper-case suffixes count; a file named .zarr and a .txt
        # do not. Entries carry the canonical extension of the format.
        inputs = tmp_path / "inputs"
        make_zarr_inputs(str(inputs), 1, prefix="e", chunks=1)
        os.rename(inputs / "e00.zarr", inputs / "e.zarr")
        for name in ("a.tif", "b.OME.TIF", "c.ome.tiff", "d.TIFF", "f.zarr", "g.txt"):
            (inputs / name).write_bytes(name.encode())
        items = orch.scan_input_dir(str(inputs))
        assert [item.id for item in items] == ["a", "b", "c", "d", "e"]
        with zipfile.ZipFile(orch.pack_inputs(items, str(tmp_path / "staging"))) as archive:
            names = archive.namelist()
        assert names[:4] == ["in/a.tiff", "in/b.ome.tiff", "in/c.ome.tiff", "in/d.tiff"]
        assert sorted(names[4:]) == ["in/e.zarr/.zattrs", "in/e.zarr/0/0"]

    def test_tiff_is_a_file_and_zarr_a_directory(self, tmp_path):
        # A directory named .tif and a file named .zarr are no inputs.
        (tmp_path / "x.tif").mkdir()
        (tmp_path / "x.tif" / "a").write_bytes(b"a")
        (tmp_path / "y.tiff").write_bytes(b"II*")
        (tmp_path / "f.zarr").write_bytes(b"f")
        assert orch.detect_format(str(tmp_path / "x.tif")) is None
        assert orch.scan_input_dir(str(tmp_path)) == [
            orch.InputItem("y", str(tmp_path / "y.tiff"), orch.InputFormat.TIFF_2D)]
