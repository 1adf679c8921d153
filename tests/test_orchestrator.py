import collections
import dataclasses
import glob
import io
import json
import os
import re
import shutil
import struct
import subprocess
import tracemalloc
import zipfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slurmbridge import cli
from slurmbridge import config as config_mod
from slurmbridge import descriptor as descriptor_mod
from slurmbridge import orchestrator as orch
from slurmbridge import slurm
from slurmbridge.errors import (
    CollisionError,
    ConnectionLost,
    DuplicateId,
    InvalidBatchSize,
    MissingInput,
    NoResults,
    SlurmBridgeError,
)
from slurmbridge.simslurm import FaultDirective, SimCluster, SimEndpoint
from slurmbridge.states import JobState
from slurmbridge.transport import DEFAULT_DEADLINE_S, PIECE, ExecResult, Quiet, unframe_commands
from tests.conftest import (
    CELLPOSE_DESCRIPTOR,
    SAMPLE_CONFIG,
    make_tiff_inputs,
    make_zarr_inputs,
    record_signature,
    traced_peak,
)
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
    """Loses the link on each launch holding a sacct, bare or framed by
    exec_many, whose entry in failures is true, before it runs (launches
    past the end of the list go through); with lose_upload, the program
    "sha256sum" or "mv", raises ConnectionLost right after the upload's
    launch of that program has run remotely; with lose_submission, raises
    lost_with right after the first launch holding an sbatch has run
    remotely: a plain one, or one framed by exec_many, with or without a
    guard before it, and with or without an sbatch that takes an earlier
    one's job id; with lose_retrieval, raises ConnectionLost right after the first
    launch in which a base64 ran remotely (a poll launch that went on to
    bring the results back, or the retrieval launch; either also tears the
    run down); and with garble, a (program, nth, lines) triple, answers the
    nth launch (from 0) in which program ran with lines in place of that
    program's output (of its first command of program, or with a fourth
    item k of its kth from 0, if it is framed by exec_many), or, with
    program None, the nth launch with lines in place of all its stdout; and
    with lose_launch, (k, ran) pairs, raises lost_with at the kth
    launch from 0 of each pair, an exec or the upload's copy, before it
    runs or, with ran true, right after it has run; with ran "empty" or
    "cut", the kth launch, an exec, runs and answers exit 0 with no output,
    or with its stdout cut to its first half."""

    def __init__(self, cluster, failures=(), lose_submission=False, lost_with=ConnectionLost,
                 lose_retrieval=False, lose_upload=None, garble=None, lose_launch=()):
        super().__init__(cluster)
        self.lose_launch = set(lose_launch)
        self.launches = 0
        self.failures = iter(failures)
        self.garble = garble
        self.garble_seen = 0  # launches that ran the program garble names
        self.lose_submission = lose_submission
        self.lost_with = lost_with
        self.lose_retrieval = lose_retrieval
        self.lose_upload = lose_upload

    def _launch(self, run):
        """run() as one launch, counted, and lost if lose_launch names it."""
        k = self.launches
        self.launches += 1
        if (k, False) in self.lose_launch:
            raise self.lost_with(f"link dropped before launch {k} ran")
        result = run()
        if (k, True) in self.lose_launch:
            raise self.lost_with(f"link dropped after launch {k} ran")
        if result is not None and (k, "empty") in self.lose_launch:
            return ExecResult(0, "", "")
        if result is not None and (k, "cut") in self.lose_launch:
            return dataclasses.replace(result, stdout=result.stdout[:len(result.stdout) // 2])
        return result

    def _copy_up(self, local, remote):
        copy_up = super()._copy_up
        self._launch(lambda: copy_up(local, remote))

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        return self._launch(lambda: self._answer(command, timeout))

    def _answer(self, command, timeout):
        framed = unframe_commands(command)
        argvs = [command] if framed is None else [
            getattr(argv, "argv", argv) for argv in framed[1] + framed[2]]
        held = {argv[0] for argv in argvs}
        if "sacct" in held and next(self.failures, False):
            raise ConnectionLost("accounting link dropped")
        result = super().exec(command, timeout)
        if command[0] == self.lose_upload:
            self.lose_upload = None
            raise ConnectionLost(f"link dropped after the upload's {command[0]} ran")
        # A framed command that did not run has the status "-".
        statuses = ["0"] if framed is None else re.findall(
            f"\n{framed[0]} (\\d+|-)\n", result.stdout)
        ran = {argv[0] for argv, status in zip(argvs, statuses) if status != "-"}
        if self.lose_submission and "sbatch" in held:
            self.lose_submission = False
            raise self.lost_with("link dropped after the submission ran")
        if self.lose_retrieval and "base64" in ran:
            self.lose_retrieval = False
            raise ConnectionLost("link dropped after the retrieval ran")
        program, nth, lines, *which = self.garble or (None, -1, ())
        if program is None or program in ran:
            self.garble_seen += 1
            if self.garble_seen == nth + 1:
                text = "".join(line + "\n" for line in lines)
                if framed is not None and program is not None:
                    # Each framed command's output, then its marker.
                    pieces = re.split(f"(\n{framed[0]} (?:\\d+|-)\n)", result.stdout)
                    at = [k for k, argv in enumerate(argvs) if argv[0] == program]
                    pieces[2 * at[which[0] if which else 0]] = text
                    text = "".join(pieces)
                result = dataclasses.replace(result, stdout=text)
        return result


class RewritesSacct(SimEndpoint):
    """Passes the stdout of every sacct the cluster answers, bare or inside
    a launch, through rewrite."""

    def __init__(self, cluster):
        super().__init__(cluster)
        sacct = cluster._sacct

        def rewritten(tokens):
            result = sacct(tokens)
            return dataclasses.replace(result, stdout=self.rewrite(result.stdout))

        cluster._sacct = rewritten


class ReportsCompleting(RewritesSacct):
    """Rewrites COMPLETED to COMPLETING in the first sacct answer that
    reports it, as a real cluster does while a finished job's epilog runs."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.rewritten = False

    def rewrite(self, stdout):
        if not self.rewritten and "|COMPLETED\n" in stdout:
            self.rewritten = True
            return stdout.replace("|COMPLETED\n", "|COMPLETING\n")
        return stdout


class ReportsUnmapped(RewritesSacct):
    """Answers every sacct poll with a state token that no JobState maps,
    as a newer Slurm than the client knows may print."""

    def rewrite(self, stdout):
        return "".join(line.split("|")[0] + "|WOBBLY\n" for line in stdout.splitlines())


class ReportsHeterogeneous(RewritesSacct):
    """Answers every sacct poll with a heterogeneous job's component line,
    `<id>+<offset>`, which no job id of the client reads as."""

    def rewrite(self, stdout):
        return "1+0|COMPLETED\n"


class RefusesConversion(SimCluster):
    """Refuses the sbatch of the conversion array under one batch dir, as a
    cluster refuses a job over its account's limits."""

    def __init__(self, batch_dir):
        super().__init__()
        self.script = f"/{batch_dir}convert.sh"

    def _sbatch(self, args):
        if args[-1].endswith(self.script):
            return ExecResult(1, "", "sbatch: error: Batch job submission failed: "
                                     "Job violates accounting/QOS policy "
                                     "(job submit limit, user's size and/or time limits) "
                                     "AssocMaxSubmitJobLimit\n")
        return super()._sbatch(args)


class GrammarOnly(SimCluster):
    """Records each command it refuses or does not know; a run of the
    client sends none."""

    def __init__(self, nodes=None):
        super().__init__(nodes)
        self.refused = []

    def _refuse(self, tokens):
        self.refused.append(tokens)
        return super()._refuse(tokens)

    def sim_exec(self, command):
        result = super().sim_exec(command)
        if result.exit_code == 127:
            self.refused.append(list(command))
        return result


def assert_no_job_outlives_its_data(cluster, time_limit_min):
    """Every job is terminal, and running the clock on for 10x the time
    limit writes nothing under data/."""
    assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
    cluster.advance(10 * time_limit_min * 60)
    assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
            if path.startswith("/scratch/omero/data/")] == []


class Events(list):
    """A run listener that keeps each (stage, detail) it is given."""

    def __call__(self, stage, detail):
        self.append((stage, detail))


def batch_failures(events):
    """batch index -> error class name, from the run's events."""
    failed = {}
    for stage, detail in events:
        if stage == "batch-failed":
            batch, error = detail.split(" ", 2)[:2]
            failed[int(batch.split("=")[1])] = error.rstrip(":")
    return failed


def batch_errors(record):
    """batch index -> error class name, from the batch records."""
    return {b.index: type(b.error).__name__ for b in record.batches if b.error is not None}


def packs_damaged(pack_inputs):
    """pack_inputs, then flip the first data byte of the archive's first
    entry, so that the entry fails its CRC."""

    def pack_damaged(*args, **kwargs):
        zip_path = pack_inputs(*args, **kwargs)
        with open(zip_path, "r+b") as handle:
            header = handle.read(30)
            handle.seek(30 + sum(struct.unpack_from("<HH", header, 26)))
            first = handle.read(1)[0]
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([first ^ 1]))
        return zip_path

    return pack_damaged


def fast_options(**overrides):
    defaults = dict(poll_interval_s=5)
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
            with open(items[2].local_path, "rb") as source:
                assert archive.read("batch1/in/img02.tiff") == source.read()

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


    def test_archive_is_what_zipfile_write_makes(self, tmp_path):
        """Entries copied in pieces are what ZipFile.write makes of the same
        walk: the same infolist, in order, the same bytes, and, with no
        script entry to carry a wall-clock stamp, the same archive."""
        inputs = tmp_path / "inputs"
        make_tiff_inputs(str(inputs), 2)
        make_zarr_inputs(str(inputs), 1, chunks=2)
        os.makedirs(inputs / "vol00.zarr" / "0" / "sub")
        (inputs / "vol00.zarr" / "0" / "sub" / "0").write_bytes(b"nested chunk")
        (inputs / "big.tiff").write_bytes(b"II*\x00" + os.urandom(3 << 20))
        os.utime(inputs / "big.tiff", (0, 1_000_000_000))
        items = orch.scan_input_dir(str(inputs))
        prefix_of = {"img00": "batch0/", "img01": "batch1/"}
        packed = orch.pack_inputs(items, str(tmp_path / "staging"), prefix_of)
        written = str(tmp_path / "written.zip")
        with zipfile.ZipFile(written, "w", zipfile.ZIP_STORED) as archive:
            for item in sorted(items, key=lambda i: i.id):
                arcbase = f"{prefix_of.get(item.id, '')}in/{item.id}.{item.format.value}"
                if not os.path.isdir(item.local_path):
                    archive.write(item.local_path, arcbase)
                    continue
                for root, _, files in os.walk(item.local_path):
                    for name in sorted(files):
                        full = os.path.join(root, name)
                        archive.write(full, f"{arcbase}/{os.path.relpath(full, item.local_path)}")

        def listing(path):
            with zipfile.ZipFile(path) as archive:
                return [(i.filename, i.date_time, i.external_attr, i.CRC, i.file_size,
                         i.compress_size, i.compress_type, archive.read(i))
                        for i in archive.infolist()]

        expected = listing(written)
        assert listing(packed) == expected
        assert "in/vol00.zarr/0/sub/0" in [entry[0] for entry in expected]
        assert max(entry[4] for entry in expected) > 1 << 20
        with open(packed, "rb") as ours, open(written, "rb") as theirs:
            assert ours.read() == theirs.read()

    def test_one_input_costs_few_writes(self, tmp_path):
        # /proc/self/io counts the write syscalls of this process: 8 KiB
        # pieces would cost over 1,000 for 8 MiB, 1 MiB pieces about 10.
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "big.tiff").write_bytes(b"II*\x00" + os.urandom(8 << 20))
        items = orch.scan_input_dir(str(inputs))

        def writes():
            with open("/proc/self/io") as handle:
                return int(dict(line.split(": ") for line in handle.read().splitlines())["syscw"])

        before = writes()
        orch.pack_inputs(items, str(tmp_path / "staging"))
        assert writes() - before <= 16

    def test_small_inputs_are_copied_through_one_small_buffer(self, tmp_path):
        # 40 inputs of 4 KiB: a new 1 MiB bytes per read would peak at
        # about 1 MiB; one buffer the size of the largest file, at 4 KiB.
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for k in range(40):
            (inputs / f"small{k:02d}.tiff").write_bytes(bytes([k]) * (4 << 10))
        items = orch.scan_input_dir(str(inputs))
        zip_path, peak = traced_peak(lambda: orch.pack_inputs(items, str(tmp_path / "staging")))
        assert peak <= 256 << 10, peak
        with zipfile.ZipFile(zip_path) as archive:
            assert [archive.read(f"in/small{k:02d}.tiff") for k in range(40)] == [
                bytes([k]) * (4 << 10) for k in range(40)]

    @pytest.mark.parametrize("sizes", [(0,), (0, 0, 5), (1, 8 << 20, 3), (PIECE, 2 * PIECE)])
    def test_a_larger_file_gets_a_larger_buffer(self, tmp_path, sizes):
        # Every file comes back whole, and one after a smaller file is
        # still read a piece at a time (/proc/self/io counts the read
        # syscalls): the buffer made for 1 byte would take 8 Mi reads.
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        payload = [os.urandom(size) for size in sizes]
        for k, data in enumerate(payload):
            (inputs / f"f{k}.tiff").write_bytes(data)
        items = orch.scan_input_dir(str(inputs))

        def reads():
            with open("/proc/self/io") as handle:
                return int(dict(line.split(": ") for line in handle.read().splitlines())["syscr"])

        before = reads()
        zip_path = orch.pack_inputs(items, str(tmp_path / "staging"))
        assert reads() - before <= 32
        with zipfile.ZipFile(zip_path) as archive:
            assert [archive.read(f"in/f{k}.tiff") for k in range(len(sizes))] == payload


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

    def test_duplicate_ids(self, tmp_path):
        items = tiff_items(tmp_path, 1)
        with pytest.raises(DuplicateId):
            orch.plan_batches(items + items, 4)


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

    def test_job_scripts_carry_nothing_for_the_simulator(self, run_env, tmp_path):
        # Each script submitted is the shebang, #SBATCH directives, exports
        # and the container command; nothing in it is for the simulator.
        endpoint, profile, registry, descriptor = run_env
        submitted = {}
        sbatch = endpoint.cluster._sbatch

        def recording(args):
            name = "/".join(args[-1].split("/")[-2:])
            submitted[name] = endpoint.cluster.fs.read(args[-1]).decode()
            return sbatch(args)

        endpoint.cluster._sbatch = recording
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        make_zarr_inputs(str(tmp_path / "inputs"), 2)
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose", {},
            orch.scan_input_dir(str(tmp_path / "inputs")), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"))
        assert record.overall_state is orch.RunStage.DONE
        assert sorted(submitted) == ["batch0/job.sh", "batch1/convert.sh", "batch1/job.sh"]
        for text in submitted.values():
            assert all(line.startswith(("#!/bin/bash", "#SBATCH --", "export ", "singularity "))
                       for line in text.splitlines()), text

    def test_one_mask_comes_back_per_input_whose_id_holds_a_dot(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ["a.x.tiff", "a.y.tiff", "b.tiff", "c.v1.ome.tiff"]:
            (inputs / name).write_bytes(b"II*\x00" + name.encode())
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose", {},
            orch.scan_input_dir(str(inputs)), 4, options=fast_options(),
            local_output_dir=str(tmp_path / "out"))
        assert record.overall_state is orch.RunStage.DONE
        with zipfile.ZipFile(record.batches[0].result_zip) as archive:
            assert sorted(archive.namelist()) == [
                "a.x_mask.tiff", "a.y_mask.tiff", "b_mask.tiff", "c.v1_mask.tiff"]

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
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
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
        assert batch_errors(record) == batch_failures(events) == {0: "ConversionFailed"}

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

    def test_zarr_batch_without_converter_fails_alone(self, run_env, tmp_path):
        # Two TIFF items sort first, so batch 0 is TIFF and batch 1 ZARR.
        endpoint, profile, registry, descriptor = run_env
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        make_zarr_inputs(str(tmp_path / "inputs"), 2)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, dataclasses.replace(profile, zarr_to_tiff=None), registry, descriptor,
            "cellpose", {}, items, 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        assert batch_errors(record) == batch_failures(events) == {1: "ConversionFailed"}
        assert "no converter configured for zarr -> tiff" in str(record.batches[1].error)
        assert record.batches[1].conversion_handle is record.batches[1].workflow_handle is None
        assert [job.script_path for job in endpoint.cluster.jobs.values()] == [
            f"{record.batches[0].remote_dir}/job.sh"]

    def test_refused_conversion_holds_its_workflow_job_back(
            self, sample_profile_registry, cellpose_descriptor, tmp_path):
        # Two TIFF items sort first: batch 0 is TIFF, batches 1 and 2 ZARR.
        profile, registry = sample_profile_registry
        endpoint = SimEndpoint(RefusesConversion("batch1/"))
        slurm.init_environment(endpoint, profile, registry)
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        make_zarr_inputs(str(tmp_path / "inputs"), 4)
        launches = record_launches(endpoint)
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, cellpose_descriptor, "cellpose", {},
            orch.scan_input_dir(str(tmp_path / "inputs")), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events)
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        refused = record.batches[1]
        assert (refused.conversion_handle, refused.workflow_handle) == (None, None)
        assert batch_errors(record) == batch_failures(events) == {1: "SubmitRejected"}
        assert "AssocMaxSubmitJobLimit" in str(refused.error)
        assert [detail.split(" after=")[0] for stage, detail in events if stage == "submit"] == [
            "batch=0 kind=workflow job_id=1", "batch=2 kind=conversion job_id=2 tasks=2",
            "batch=2 kind=workflow job_id=3"]
        assert endpoint.cluster.jobs[3].dependency == 2
        # One submission launch; the other launches poll, and the last of
        # them brings the results back.
        assert [command[0] for command in launches
                if "squeue" not in command].count("sh") == 1
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_lost_submission_with_conversions_fails_every_batch(self, run_env, tmp_path):
        # Both batches convert; the one submission launch ran, but its answer
        # was lost: every batch failed its transfer, and the teardown
        # cancelled all four jobs by name.
        endpoint, profile, registry, descriptor = run_env
        make_zarr_inputs(str(tmp_path / "inputs"), 4)
        flaky = FlakyLink(endpoint.cluster, lose_submission=True)
        events = Events()
        record = orch.run_workflow_batched(
            flaky, profile, registry, descriptor, "cellpose", {},
            orch.scan_input_dir(str(tmp_path / "inputs")), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events)
        assert not flaky.lose_submission
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "TransferFailed", 1: "TransferFailed"}
        assert [job.dependency for job in endpoint.cluster.jobs.values()] == [None, None, 1, 2]
        assert ("cancel", f"name=sb-{record.run_id} job_ids=") in events
        assert all(job.parent_state() is JobState.CANCELLED
                   for job in endpoint.cluster.jobs.values())
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
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 5, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        zips = [p for p in record.output_artifacts if p.endswith(".zip")]
        assert len(zips) == 2
        failed = record.batches[1]
        assert failed.result_zip is None
        assert failed.logfile and os.path.exists(failed.logfile)
        assert failed.workflow_handle is not None
        assert batch_errors(record) == batch_failures(events) == {1: "WorkflowFailed"}
        assert failed.logfile in record.output_artifacts

    def test_accounting_lost_mid_run_keeps_the_completed_batches(self, run_env, tmp_path):
        # sacct fails from its 4th call on. The three polls before it saw 4
        # of the 6 batches complete; the third failure in a row fails the
        # other 2, which the retrieval launch cancels by name.
        endpoint, profile, registry, descriptor = run_env
        events = Events()
        record = orch.run_workflow_batched(
            FlakyLink(endpoint.cluster, [False] * 3 + [True] * 3), profile, registry,
            descriptor, "cellpose", {}, tiff_items(tmp_path, 12), 2,
            options=orch.RunOptions(), local_output_dir=str(tmp_path / "out"),
            listener=events)
        assert events[-1] == ("PartialFailure", "completed=4 failed=2")
        assert len([p for p in record.output_artifacts if p.endswith(".zip")]) == 4
        assert batch_errors(record) == batch_failures(events) == {
            4: "AccountingUnavailable", 5: "AccountingUnavailable"}
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_missing_output_fails_only_its_batch(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(
            FaultDirective(script_substring="batch1/job.sh", missing_output=True))
        items = tiff_items(tmp_path, 12)
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 5, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        assert batch_errors(record) == batch_failures(events) == {1: "RetrievalFailed"}
        assert record.batches[1].state is JobState.COMPLETED
        assert record.batches[1].result_zip is None
        for index in (0, 2):
            batch = record.batches[index]
            with zipfile.ZipFile(batch.result_zip) as archive:
                assert sorted(archive.namelist()) == sorted(
                    f"{item_id}_mask.tiff" for item_id in batch.items)

    def test_failed_row_names_each_error_once(self, sample_profile_registry,
                                              cellpose_descriptor, tmp_path):
        # On one node too small for any job, sbatch refuses three batches
        # alike; the fourth fails alone, its input gone before the run.
        profile, registry = sample_profile_registry
        endpoint = SimEndpoint(SimCluster(nodes=[{"cpus": 1, "gpus": 0, "mem_mb": 512}]))
        slurm.init_environment(endpoint, profile, registry)
        items = tiff_items(tmp_path, 4)
        os.remove(items[3].local_path)
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, cellpose_descriptor, "cellpose", {}, items, 1,
            options=fast_options(), local_output_dir=str(tmp_path / "out"), listener=events)
        assert batch_errors(record) == {0: "SubmitRejected", 1: "SubmitRejected",
                                        2: "SubmitRejected", 3: "MissingInput"}
        rejected = str(record.batches[0].error)
        assert "Requested node configuration is not available" in rejected
        assert events[-1] == ("Failed", f"{rejected} (3 batches); {items[3].local_path}")

    def test_an_input_file_that_cannot_be_read_fails_the_run(self, run_env, tmp_path):
        # A ZARR chunk that is a dangling symlink cannot be packed: every
        # batch shipped fails with the error that names it, nothing is
        # uploaded or submitted, and the run still journals its end.
        endpoint, profile, registry, descriptor = run_env
        inputs = tmp_path / "inputs"
        make_tiff_inputs(str(inputs), 1, prefix="a")
        make_zarr_inputs(str(inputs), 1, prefix="v", chunks=1)
        chunk = inputs / "v00.zarr" / "0" / "1"
        chunk.symlink_to(tmp_path / "gone")
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose", {},
            orch.scan_input_dir(str(inputs)), 1, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events)
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "FileNotFoundError", 1: "FileNotFoundError"}
        assert events[-1][0] == "Failed" and str(chunk) in events[-1][1]
        assert endpoint.cluster.jobs == {}
        assert [path for path in list(endpoint.cluster.fs.files) + list(endpoint.cluster.fs.dirs)
                if path.startswith("/scratch/omero/data/")] == []

    def test_failed_upload_removal_keeps_results(self, run_env, tmp_path, monkeypatch):
        class UploadUnremovable(SimCluster):
            refused = []
            submissions = []  # each launch that holds an sbatch

            def sim_exec(self, command):
                framed = unframe_commands(command)
                if framed and any(argv[0] == "sbatch" for argv in framed[2]):
                    self.submissions.append(command)
                if command[:2] == ["rm", "-f"] and command[2].endswith(".zip"):
                    self.refused.append(command[2])
                    return ExecResult(1, "", "rm: cannot remove: Permission denied\n")
                return super().sim_exec(command)

        fetch_results = slurm.fetch_results

        def keeps_bundle(*args):
            ran, fetched = fetch_results(*args)
            if fetched is not None:
                with zipfile.ZipFile(io.BytesIO(fetched[0])) as archive:
                    endpoint.bundle = archive.namelist()
            return ran, fetched

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
        # The refused removal comes after the sbatches and holds no job back:
        # the jobs go in by the one submission launch.
        assert len(UploadUnremovable.submissions) == 1
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
                if command[0] == "sh" and "unzip" in command:
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
                    return ExecResult(2, "", f"{refused}: refused\n")
                return result

        _, profile, registry, descriptor = run_env
        endpoint = SimEndpoint(Refuses())
        slurm.init_environment(endpoint, profile, registry)
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor,
            "cellpose", {}, tiff_items(tmp_path, 4), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        assert endpoint.cluster.jobs == {}
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "TransferFailed", 1: "TransferFailed"}
        assert all(f"remote {step} failed: {refused}: refused" in str(batch.error)
                   for batch in record.batches)
        assert [path for path in endpoint.cluster.fs.files
                if path.startswith("/scratch/omero/data/")] == []

    def test_damaged_upload_fails_unpack(self, run_env, tmp_path, monkeypatch):
        # The archive is damaged before it is hashed, so the upload's digest
        # matches; unzip then finds the bad CRC, exits 2 and holds sbatch back.
        monkeypatch.setattr(orch, "pack_inputs", packs_damaged(orch.pack_inputs))
        endpoint, profile, registry, descriptor = run_env
        counting = CountingEndpoint(endpoint.cluster)
        events = Events()
        record = orch.run_workflow_batched(
            counting, profile, registry, descriptor,
            "cellpose", {}, tiff_items(tmp_path, 4), 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        assert counting.counts["put_file"] == 1
        assert endpoint.cluster.jobs == {}
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "TransferFailed", 1: "TransferFailed"}
        assert all("remote unpack failed:" in str(batch.error) and "bad CRC" in str(batch.error)
                   for batch in record.batches)
        assert [path for path in list(endpoint.cluster.fs.files) + list(endpoint.cluster.fs.dirs)
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
        local_zips = {slurm.zip_entry_name(str(run_dir / f"batch{index}" / "out")) + "/":
                      str(tmp_path / f"batch{index}.zip") for index in range(3)}
        with zipfile.ZipFile(results) as archive:
            written = orch._split_results(archive, local_zips)
        split = {}
        for index, (prefix, local) in enumerate(local_zips.items()):
            if prefix in written:
                with zipfile.ZipFile(local) as part:
                    split[index] = {n: part.read(n) for n in part.namelist()}
        assert split == {0: {"a_mask.tiff": b"a"},
                         1: {"b_mask.tiff": b"b", "sub/c.tiff": b"c"}}
        assert not os.path.exists(tmp_path / "batch2.zip")

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
        # One archive up (its copy, then `sha256sum` and `mv -T`), then one
        # launch to make the dirs, unpack it and submit every job, the
        # workflow jobs that wait on a conversion among them, and one poll
        # launch after each sleep, no poll wasted; the last poll zips every
        # output and log, sends the bundle back and removes the run's data.
        assert counts.pop("sh") == 1 + counts.pop("sleep")
        assert counts == {"put_file": 1, "sha256sum": 1, "mv": 1}
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
        assert record_signature(single) == record_signature(batched)

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
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        order = ["Preparing", "Transferring", "Queued", "Running",
                 "Retrieving", "Done"]
        stage_rows = [s for s, _ in events if s in order]
        assert stage_rows == order

    def test_journal_written(self, run_env, tmp_path):
        endpoint, profile, registry, descriptor = run_env
        items = tiff_items(tmp_path, 2)
        journal = tmp_path / "run.journal"
        orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, 2, options=fast_options(),
            local_output_dir=str(tmp_path / "out"),
            listener=lambda stage, detail: cli.append_journal_row(str(journal), stage, detail),
        )
        assert journal.exists()
        lines = journal.read_text().splitlines()
        assert lines[0].split("\t")[1] == "Preparing"
        assert lines[-1].split("\t")[1] == "Done"

    @pytest.mark.parametrize("supplied,default", [("a\nb", None), (None, "x\ry")])
    def test_line_break_in_a_string_fails_before_any_row_or_call(
            self, sample_profile_registry, tmp_path, supplied, default):
        """Called as a library, a run refuses a String value, supplied or
        default, that holds a line break before it journals a row or sends
        a command: a job script could not keep the value on its one line."""
        profile, registry = sample_profile_registry
        descriptor = descriptor_mod.parse_descriptor(json.dumps(dict(
            CELLPOSE_DESCRIPTOR, inputs=CELLPOSE_DESCRIPTOR["inputs"] + [
                {"id": "label", "type": "String", "optional": True, "default-value": default}])))
        endpoint, rows = CountingEndpoint(SimCluster()), []
        with pytest.raises(SlurmBridgeError, match="parameter 'label' holds a line break"):
            orch.run_workflow_batched(
                endpoint, profile, registry, descriptor, "cellpose",
                {} if supplied is None else {"label": supplied}, tiff_items(tmp_path, 2), 2,
                options=fast_options(), local_output_dir=str(tmp_path / "out"),
                listener=lambda stage, detail: rows.append(stage))
        assert (endpoint.counts, rows) == ({}, [])

    @pytest.mark.parametrize("batch_size,error,message", [
        (2, DuplicateId, "inputs {0}/x.tiff and {0}/x.zarr share the id 'x'"),
        (0, InvalidBatchSize, "batch size must be positive, got 0")],
        ids=["duplicate-id", "batch-size-0"])
    def test_refused_run_emits_no_event_and_makes_no_call(
            self, sample_profile_registry, cellpose_descriptor, tmp_path,
            batch_size, error, message):
        """Two inputs of one id and a batch size below 1 are refused before
        the first event and before any remote call."""
        profile, registry = sample_profile_registry
        inputs = tmp_path / "inputs"
        (inputs / "x.zarr").mkdir(parents=True)
        (inputs / "x.zarr" / ".zattrs").write_text("{}")
        (inputs / "x.tiff").write_bytes(b"II*")
        items = orch.scan_input_dir(str(inputs))
        if error is InvalidBatchSize:
            items = items[:1]
        endpoint, events = CountingEndpoint(SimCluster()), Events()
        with pytest.raises(error) as raised:
            orch.run_workflow_batched(
                endpoint, profile, registry, cellpose_descriptor, "cellpose", {}, items,
                batch_size, options=fast_options(), local_output_dir=str(tmp_path / "out"),
                listener=events)
        assert str(raised.value) == message.format(inputs)
        assert (endpoint.counts, events) == ({}, [])
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run,state", [("tiff", "Done"), ("tiff+zarr", "Done"),
                                       ("damaged-upload", "Failed"), ("lost-link", "Failed")])
def test_whole_runs_send_only_the_grammar(sample_profile_registry, cellpose_descriptor,
                                          tmp_path, monkeypatch, run, state):
    """A run, whether it completes or not, sends the simulator no command
    that it refuses or does not know. The lost link drops two accounting
    calls and the retrieval launch's answer."""
    profile, registry = sample_profile_registry
    cluster = GrammarOnly()
    endpoint = SimEndpoint(cluster)
    slurm.init_environment(endpoint, profile, registry)
    make_tiff_inputs(str(tmp_path / "inputs"), 4)
    if run == "tiff+zarr":
        make_zarr_inputs(str(tmp_path / "inputs"), 2)
    elif run == "damaged-upload":
        monkeypatch.setattr(orch, "pack_inputs", packs_damaged(orch.pack_inputs))
    elif run == "lost-link":
        endpoint = FlakyLink(cluster, [True, False, True], lose_retrieval=True)
    record = orch.run_workflow_batched(
        endpoint, profile, registry, cellpose_descriptor, "cellpose", {},
        orch.scan_input_dir(str(tmp_path / "inputs")), 2, options=fast_options(),
        local_output_dir=str(tmp_path / "out"))
    assert record.overall_state.value == state
    assert cluster.refused == []


class SleepGuard(SimEndpoint):
    """Raises on the run's 1,001st sleep: a run that polls without end."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.sleeps = 0

    def sleep(self, seconds):
        self.sleeps += 1
        if self.sleeps > 1000:
            raise AssertionError("the run polled 1,000 times and did not end")
        super().sleep(seconds)


@settings(max_examples=40, deadline=None)
@given(nodes=st.lists(st.fixed_dictionaries({
           "cpus": st.integers(1, 4), "gpus": st.integers(0, 1),
           "mem_mb": st.sampled_from([512, 2048, 8192])}), min_size=1, max_size=3),
       resources=st.builds(config_mod.ResourceSpec, mem_mb=st.sampled_from([256, 1024, 4096]),
                           cpus=st.integers(1, 4), gpus=st.integers(0, 1),
                           time_limit_min=st.sampled_from([1, 60])),
       zarr=st.booleans())
def test_every_run_ends_on_any_topology(tmp_path_factory, nodes, resources, zarr):
    """On 1-3 small nodes, with drawn workflow resources and no deadline, a
    run ends Done or with its failures journaled, every job is terminal,
    and nothing is left under data/: a job that no node can hold is refused
    at submission, not polled for ever."""
    profile, registry = config_mod.parse_config(SAMPLE_CONFIG)
    descriptor = descriptor_mod.parse_descriptor(json.dumps(CELLPOSE_DESCRIPTOR))
    entry = dataclasses.replace(registry.entry("cellpose"), resources=resources)
    registry = dataclasses.replace(registry, entries={"cellpose": entry})
    workdir = tmp_path_factory.mktemp("run")
    make_tiff_inputs(str(workdir / "inputs"), 2)
    if zarr:
        make_zarr_inputs(str(workdir / "inputs"), 2)
    cluster = SimCluster(nodes=nodes)
    slurm.init_environment(SimEndpoint(cluster), profile, registry)
    journal = str(workdir / "run.journal")
    record = orch.run_workflow_batched(
        SleepGuard(cluster), profile, registry, descriptor, "cellpose", {},
        orch.scan_input_dir(str(workdir / "inputs")), 2, options=fast_options(),
        local_output_dir=str(workdir / "out"),
        listener=lambda stage, detail: cli.append_journal_row(journal, stage, detail))
    rows = [(stage, detail) for _, stage, detail in cli.read_journal(journal)]
    assert rows[-1][0] == record.overall_state.value
    assert record.overall_state in orch.TERMINAL_STAGES
    failed = {b.index for b in record.batches if not b.result_zip}
    assert failed == set(batch_failures(rows))
    assert (record.overall_state is orch.RunStage.DONE) == (not failed)
    assert_no_job_outlives_its_data(cluster, resources.time_limit_min)


# Lines no command prints, none of them a well-formed job id or accounting
# record: odd ids, empty or non-digit fields, stray '|' and very long lines.
# A line of digits, or `<id>|<state>`, would be an answer the client must
# believe, not a damaged one.
_DAMAGED_LINES = st.lists(st.one_of(
    st.sampled_from(["1+0|COMPLETED", "1.batch|COMPLETED", "abc|RUNNING", "12x", "1_|RUNNING",
                     "1_[|PENDING", "|COMPLETED", "1|", "1||RUNNING", "|", "", " 1 2"]),
    st.builds("{}|{}".format, st.from_regex(r"[0-9]*[^0-9\n|_][0-9_\[\],|-]*", fullmatch=True),
              st.sampled_from(["RUNNING", "COMPLETED", "", "WOBBLY"])),
    st.integers(1000, 20000).map(lambda n: "1|" + "R" * n),
    st.integers(1000, 20000).map(lambda n: "x" * n)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(program=st.sampled_from([None, "sbatch", "sacct", "sha256sum", "base64"]),
       nth=st.integers(0, 2), lines=_DAMAGED_LINES)
def test_a_damaged_answer_ends_the_run_at_a_journaled_stage(tmp_path_factory, program, nth,
                                                            lines):
    """The output of one command the client reads, or one launch's whole
    answer, is replaced by damaged lines: the run raises nothing and journals a final stage, every
    job is terminal, and once a teardown has answered nothing is left under
    data/."""
    profile, registry = config_mod.parse_config(SAMPLE_CONFIG)
    descriptor = descriptor_mod.parse_descriptor(json.dumps(CELLPOSE_DESCRIPTOR))
    workdir = tmp_path_factory.mktemp("run")
    make_tiff_inputs(str(workdir / "inputs"), 2)
    make_zarr_inputs(str(workdir / "inputs"), 2)
    cluster = SimCluster()
    slurm.init_environment(SimEndpoint(cluster), profile, registry)
    journal = str(workdir / "run.journal")
    record = orch.run_workflow_batched(
        FlakyLink(cluster, garble=(program, nth, lines)), profile, registry, descriptor,
        "cellpose", {}, orch.scan_input_dir(str(workdir / "inputs")), 2,
        options=fast_options(deadline_s=600), local_output_dir=str(workdir / "out"),
        listener=lambda stage, detail: cli.append_journal_row(journal, stage, detail))
    rows = [(stage, detail) for _, stage, detail in cli.read_journal(journal)]
    assert rows[-1][0] == record.overall_state.value
    assert record.overall_state in orch.TERMINAL_STAGES
    assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
    if any(stage == "cleanup" and detail.startswith("removed=") for stage, detail in rows):
        assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
                if path.startswith("/scratch/omero/data/")] == []


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, 2),
       answer=st.builds("{}{}".format, st.sampled_from([99, 1, 2, 3]),
                        st.sampled_from(["", ";other"])),
       slow=st.sampled_from(["batch0/job.sh", "batch1/job.sh", "batch1/convert.sh"]))
@example(which=0, answer="99", slow="batch0/job.sh")
@example(which=2, answer="2", slow="batch1/job.sh")
@example(which=2, answer="1", slow="batch1/job.sh")
def test_a_forged_job_id_removes_no_data_under_a_live_job(tmp_path_factory, which, answer,
                                                         slow):
    """One of the three sbatch answers of a run (batch 0's workflow job,
    batch 1's conversion array and its workflow job, ids 1-3) is replaced
    by a well-formed id: one no job has, another of the run's, or either
    with a cluster name; one of the run's jobs runs for 60 s. No data is
    removed while a job of the run is queued or running, the run ends at a
    journaled final stage before its deadline, every job is terminal and
    nothing is left under data/. The batch whose sbatch answers were all
    left as sent brings its results back, even when the forged id is its
    job's."""
    profile, registry = config_mod.parse_config(SAMPLE_CONFIG)
    descriptor = descriptor_mod.parse_descriptor(json.dumps(CELLPOSE_DESCRIPTOR))
    workdir = tmp_path_factory.mktemp("run")
    make_tiff_inputs(str(workdir / "inputs"), 2)
    make_zarr_inputs(str(workdir / "inputs"), 2)
    cluster = RemovesOnlyEnded()
    cluster.inject_fault(FaultDirective(script_substring=slow, duration_s=60))
    slurm.init_environment(SimEndpoint(cluster), profile, registry)
    journal = str(workdir / "run.journal")
    record = orch.run_workflow_batched(
        FlakyLink(cluster, garble=("sbatch", 0, [answer], which)), profile, registry,
        descriptor, "cellpose", {}, orch.scan_input_dir(str(workdir / "inputs")), 2,
        options=fast_options(deadline_s=600), local_output_dir=str(workdir / "out"),
        listener=lambda stage, detail: cli.append_journal_row(journal, stage, detail))
    assert cluster.early == []
    rows = [(stage, detail) for _, stage, detail in cli.read_journal(journal)]
    assert rows[-1][0] == record.overall_state.value
    assert record.overall_state in orch.TERMINAL_STAGES
    assert cluster.clock < 600
    untouched = record.batches[1 if which == 0 else 0]
    assert untouched.result_zip in record.output_artifacts
    assert_no_job_outlives_its_data(cluster, registry.entry("cellpose").resources.time_limit_min)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(), min_size=1, max_size=4))
def test_journal_rows_stay_one_line_and_read_back(tmp_path_factory, details):
    path = str(tmp_path_factory.mktemp("journal") / "run.journal")
    for detail in details:
        cli.append_journal_row(path, "stage", detail, timestamp="t")
    with open(path, newline="") as handle:
        assert handle.read().count("\n") == len(details)
    assert cli.read_journal(path) == [["t", "stage", detail] for detail in details]


class TestRunLifecycle:
    def run(self, endpoint, run_env, tmp_path, listener=None, **options):
        _, profile, registry, descriptor = run_env
        return orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, tiff_items(tmp_path, 4), 2, options=fast_options(**options),
            local_output_dir=str(tmp_path / "out"), listener=listener,
        )

    def test_two_accounting_failures_cost_only_rounds(self, run_env, tmp_path):
        endpoint = FlakyLink(run_env[0].cluster, [True, True])
        record = self.run(endpoint, run_env, tmp_path)
        assert list(endpoint.failures) == []
        assert record.overall_state is orch.RunStage.DONE
        assert all(batch.result_zip for batch in record.batches)

    @pytest.mark.parametrize("refusals", [2, 3])
    def test_a_guarded_poll_whose_sacct_exits_non_zero(self, run_env, tmp_path, refusals):
        # sacct exits 1 in the first polls, as while slurmdbd is down: two
        # such rounds cost only rounds; the third in a row fails every live
        # batch, and the ending launch cancels the run's jobs by name.
        _, profile, registry, _ = run_env
        cluster = SacctRefused(refusals)
        slurm.init_environment(SimEndpoint(cluster), profile, registry)
        events = Events()
        record = self.run(SimEndpoint(cluster), run_env, tmp_path, listener=events)
        assert cluster.refusals == 0
        assert events[-1][0] == record.overall_state.value
        assert cluster.early == []
        if refusals == 2:
            assert record.overall_state is orch.RunStage.DONE
            assert all(batch.result_zip for batch in record.batches)
        else:
            assert record.overall_state is orch.RunStage.FAILED
            assert batch_errors(record) == batch_failures(events) == {
                0: "AccountingUnavailable", 1: "AccountingUnavailable"}
            assert "Problem talking to the database" in str(record.batches[0].error)
            assert "cancel" in [stage for stage, _ in events]
            assert "scancel" in cluster.ran
        assert_no_job_outlives_its_data(cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_completing_job_is_polled_again(self, run_env, tmp_path):
        endpoint = ReportsCompleting(run_env[0].cluster)
        record = self.run(endpoint, run_env, tmp_path)
        assert endpoint.rewritten
        assert record.overall_state is orch.RunStage.DONE
        assert all(batch.result_zip for batch in record.batches)

    @pytest.mark.parametrize("endpoint_class, error", [
        (lambda cluster: FlakyLink(cluster, [True, True, True]), "AccountingUnavailable"),
        # An unmapped token gives up at once, though no accounting failed.
        (ReportsUnmapped, "UnknownState"),
        # So does a line whose job id it cannot read.
        (ReportsHeterogeneous, "UnparseableJobId"),
    ], ids=["accounting", "unknown-state", "unreadable-line"])
    def test_poll_giving_up_fails_live_batches(self, run_env, tmp_path, endpoint_class, error):
        cluster = run_env[0].cluster
        events = Events()
        record = self.run(endpoint_class(cluster), run_env, tmp_path, listener=events)
        assert record.overall_state is orch.RunStage.FAILED
        assert events[-1][0] == "Failed"
        assert batch_errors(record) == batch_failures(events) == {0: error, 1: error}
        assert "cancel" in [stage for stage, _ in events]
        assert len(cluster.jobs) == 2
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    @pytest.mark.parametrize("program", ["sha256sum", "mv"])
    def test_lost_upload_answer_submits_nothing(self, run_env, tmp_path, program):
        # The upload's digest check or move ran, but its answer was lost:
        # every batch fails, and the teardown removes the archive, staged
        # or in place.
        cluster = run_env[0].cluster
        endpoint = FlakyLink(cluster, lose_upload=program)
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events)
        assert endpoint.lose_upload is None
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "TransferFailed", 1: "TransferFailed"}
        assert cluster.jobs == {}
        assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
                if path.startswith("/scratch/omero/data/")] == []

    def test_lost_submission_answer_orphans_no_job(self, run_env, tmp_path):
        cluster = run_env[0].cluster
        cluster.inject_fault(FaultDirective(script_substring="batch0/job.sh",
                                            forced_state=JobState.TIMEOUT))
        endpoint = FlakyLink(cluster, lose_submission=True)
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events)
        assert not endpoint.lose_submission
        assert len(cluster.jobs) == 2
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)
        # The client never learned either job id, so no batch can succeed.
        assert record.overall_state is orch.RunStage.FAILED
        assert "cancel" in [stage for stage, _ in events]

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
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events)
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        # The last launch polls, and as squeue lists neither job, it brings
        # the bundle back and tears the run down, cancelling nothing.
        run_dir = f"/scratch/omero/data/{record.run_id}"
        _, (guard, poll), (fetch, digest, stream, *teardown) = unframe_commands(launches[-1])
        assert guard == Quiet(["squeue", "-a", "-h", f"--name=sb-{record.run_id}", "-o", "%i"])
        assert poll == ["sacct", "-n", "-P", "-X", "-o", "JobID,State", "-j", "1,2"]
        assert (fetch[0], digest, stream) == (
            "zip", ["sha256sum", run_dir + "/bundle.zip"], ["base64", run_dir + "/bundle.zip"])
        assert teardown == [
            ["test", "-e", run_dir], ["rm", "-rf", run_dir],
            ["test", "-e", run_dir + ".zip"], ["rm", "-rf", run_dir + ".zip"],
            ["test", "-e", run_dir + ".zip.part"], ["rm", "-rf", run_dir + ".zip.part"]]
        assert [stage for stage, _ in events].count("cleanup") == 1

    @pytest.mark.parametrize("damage", ["flipped", "truncated"])
    def test_damaged_bundle_fails_retrieval(self, run_env, tmp_path, damage):
        _, profile, registry, descriptor = run_env
        endpoint = SimEndpoint(DamagesStream(DAMAGES[damage]))
        slurm.init_environment(endpoint, profile, registry)
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events)
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "RetrievalFailed", 1: "RetrievalFailed"}
        assert all("sha256" in str(batch.error) for batch in record.batches)
        assert glob.glob(str(tmp_path / "out" / "*.zip")) == []
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_lost_retrieval_answer_tears_down_again(self, run_env, tmp_path):
        # The poll launch that went on to the retrieval ran, but its answer
        # was lost: one accounting failure. The next poll retrieves and
        # removes once more, finding no result and nothing left to remove.
        cluster = run_env[0].cluster
        endpoint = FlakyLink(cluster, lose_retrieval=True)
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events)
        assert not endpoint.lose_retrieval
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == {0: "RetrievalFailed", 1: "RetrievalFailed"}
        rows = [(stage, detail) for stage, detail in events
                if stage in ("cancel", "cleanup")]
        assert rows == [("cleanup", "removed=0")]
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_job_accounting_never_lists_fails_its_batch_after_the_teardown(self, run_env,
                                                                          tmp_path):
        # Batch 0's sbatch answer reads 99, an id no job has; its job, 1,
        # runs as batch 1's does, to t=30. The poll at t=30 finds no job of
        # the run queued and tears the run down; the next, at t=35, finds
        # that sacct still lists no job 99 and fails the batch, well before
        # the deadline.
        cluster = run_env[0].cluster
        endpoint = FlakyLink(cluster, garble=("sbatch", 0, ["99"]))
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events, deadline_s=600)
        assert cluster.clock == 35
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        assert batch_errors(record) == batch_failures(events) == {0: "UnparseableJobId"}
        assert "job 99 " in str(record.batches[0].error)
        assert [stage for stage, _ in events].count("cleanup") == 1
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_completed_run_cancels_nothing(self, run_env, tmp_path):
        launches = record_launches(run_env[0])
        record = self.run(run_env[0], run_env, tmp_path)
        assert record.overall_state is orch.RunStage.DONE
        assert not any("scancel" in " ".join(command) for command in launches)

    def test_deadline_cancels_live_jobs(self, run_env, tmp_path):
        endpoint, _, registry, _ = run_env
        endpoint.cluster.inject_fault(FaultDirective(script_substring="job.sh", duration_s=600))
        events = Events()
        record = self.run(endpoint, run_env, tmp_path, listener=events, deadline_s=5)
        assert record.overall_state is orch.RunStage.FAILED
        assert batch_errors(record) == batch_failures(events) == {
            0: "WorkflowFailed", 1: "WorkflowFailed"}
        assert "cancel" in [stage for stage, _ in events]
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    def test_deadline_before_workflow_logs_keeps_conversion_log(self, run_env, tmp_path):
        # The conversion completed by the deadline; the workflow job wrote no
        # log yet, so the batch keeps the conversion's.
        endpoint, profile, registry, descriptor = run_env
        endpoint.cluster.inject_fault(FaultDirective(script_substring="job.sh", duration_s=600))
        make_zarr_inputs(str(tmp_path / "inputs"), 4)
        items = orch.scan_input_dir(str(tmp_path / "inputs"))
        events = Events()
        record = orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose",
            {}, items, len(items), options=fast_options(deadline_s=5),
            local_output_dir=str(tmp_path / "out"), listener=events,
        )
        assert batch_errors(record) == batch_failures(events) == {0: "WorkflowFailed"}
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


class RemovesOnlyEnded(SimCluster):
    """Records each `rm -rf` under data/ that runs while a task of any job
    is queued or running: a job outliving its data."""

    def __init__(self, nodes=None):
        super().__init__(nodes)
        self.early = []
        self.ran = []  # the program of every command, in order

    def sim_exec(self, command):
        self.ran.append(command[0])
        if command[:2] == ["rm", "-rf"] and "/data/" in command[2]:
            live = [task.entry_id for job in self.jobs.values() for task in job.tasks
                    if not task.state.terminal]
            if live:
                self.early.append((command[2], live))
        return super().sim_exec(command)


class SacctRefused(RemovesOnlyEnded):
    """Answers the first refusals sacct calls as sacct does while slurmdbd
    is down: exit 1, with the error on stderr."""

    def __init__(self, refusals, nodes=None):
        super().__init__(nodes)
        self.refusals = refusals

    def _sacct(self, tokens):
        if not self.refusals:
            return super()._sacct(tokens)
        self.refusals -= 1
        return ExecResult(
            1, "", "sacct: error: Problem talking to the database: Connection refused\n")


class SacctLags(RemovesOnlyEnded):
    """Answers each sacct with what it printed for the one before, nothing
    the first time: accounting a round behind the controller."""

    def __init__(self, nodes=None):
        super().__init__(nodes)
        self.last = ExecResult(0, "", "")

    def _sacct(self, tokens):
        answer, self.last = self.last, super()._sacct(tokens)
        return answer


class PrintsNoJobId(RemovesOnlyEnded):
    """Makes the --parsable answer of the sbatch of script unreadable,
    though the job went in."""

    def __init__(self, script, nodes=None):
        super().__init__(nodes)
        self.script = script

    def _sbatch(self, args):
        result = super()._sbatch(args)
        if self.script in args[-1]:
            return dataclasses.replace(result, stdout="queued as " + result.stdout)
        return result


class HashesNothing(SimCluster):
    """Answers `sha256sum` with exit 0 and no output."""

    def sim_exec(self, command):
        if command[0] == "sha256sum":
            return ExecResult(0, "", "")
        return super().sim_exec(command)


class TestLastPollRetrieves:
    def run(self, cluster, run_env, tmp_path, items, batch_size, listener=None, **options):
        _, profile, registry, descriptor = run_env
        endpoint = SimEndpoint(cluster)
        slurm.init_environment(endpoint, profile, registry)
        return orch.run_workflow_batched(
            endpoint, profile, registry, descriptor, "cellpose", {}, items, batch_size,
            options=fast_options(**options), local_output_dir=str(tmp_path / "out"),
            listener=listener)

    @pytest.mark.parametrize("duration", [10, 20])
    def test_failed_array_keeps_the_run_dir_while_a_task_runs(self, run_env, tmp_path,
                                                              duration):
        # On one node of two slots, batch 0's workflow job takes one slot
        # and batch 1's conversion array of 3 failing tasks the other, so
        # that its parent state reads FAILED from t=5 while its tasks run
        # on to t=15. The guard lists every job submitted: with batch 0's
        # job ending at t=10, no poll removes the data, and the retrieval
        # launch cancels the last task first; ending at t=20, after every
        # task, the last poll brings the results back and cancels nothing.
        cluster = RemovesOnlyEnded(nodes=[{"cpus": 4, "gpus": 0, "mem_mb": 16384}])
        cluster.inject_fault(FaultDirective(script_substring="batch1/convert.sh",
                                            forced_state=JobState.FAILED))
        cluster.inject_fault(FaultDirective(script_substring="job.sh", duration_s=duration))
        make_tiff_inputs(str(tmp_path / "inputs"), 3)
        make_zarr_inputs(str(tmp_path / "inputs"), 3)
        events = Events()
        record = self.run(cluster, run_env, tmp_path,
                          orch.scan_input_dir(str(tmp_path / "inputs")), 3, listener=events)
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        assert batch_errors(record) == {1: "ConversionFailed"}
        assert cluster.early == []
        assert ("cancel" in [stage for stage, _ in events]) == (duration == 10)
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_lagging_accounting_retrieves_once(self, run_env, tmp_path):
        # The poll at t=20 finds no job queued but reads t=15's accounting:
        # it brings the results back and tears down, and the next polls,
        # sacct alone, wait until accounting shows every job completed.
        cluster = SacctLags()
        cluster.inject_fault(FaultDirective(script_substring="job.sh", duration_s=20))
        events = Events()
        record = self.run(cluster, run_env, tmp_path, tiff_items(tmp_path, 4), 2,
                          listener=events)
        assert record.overall_state is orch.RunStage.DONE
        assert all(batch.result_zip for batch in record.batches)
        assert cluster.ran.count("base64") == 1
        assert cluster.ran.count("squeue") == 4 and cluster.ran.count("sacct") == 5
        assert [stage for stage, _ in events].count("cleanup") == 1
        assert cluster.early == []

    @pytest.mark.parametrize("script, error", [("batch1/job.sh", "UnparseableJobId"),
                                               ("batch1/convert.sh", "SubmitRejected")])
    def test_unreadable_job_id_holds_the_guard_while_job_runs(self, run_env, tmp_path,
                                                              script, error):
        # Batch 1's workflow job, or its conversion array, went in with an
        # id the client could not read, and runs to its time limit. An
        # unreadable array id also gets the workflow job's sbatch refused,
        # and the batch ends with that error. The guard lists the job by
        # its name, so no poll removes the data, and the one retrieval
        # launch cancels the job by name first.
        cluster = PrintsNoJobId(script)
        cluster.inject_fault(FaultDirective(script_substring=script,
                                            forced_state=JobState.TIMEOUT))
        make_tiff_inputs(str(tmp_path / "inputs"), 3)
        make_zarr_inputs(str(tmp_path / "inputs"), 3)
        events = Events()
        record = self.run(cluster, run_env, tmp_path,
                          orch.scan_input_dir(str(tmp_path / "inputs")), 3, listener=events)
        assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
        assert batch_errors(record) == {1: error}
        assert "squeue" in cluster.ran and cluster.ran.count("base64") == 1
        assert "cancel" in [stage for stage, _ in events]
        assert cluster.early == []
        assert_no_job_outlives_its_data(
            cluster, run_env[2].entry("cellpose").resources.time_limit_min)

    def test_upload_digest_with_no_output_fails_the_transfer(self, run_env, tmp_path):
        # sha256sum exits 0 but prints nothing: the upload fails its digest.
        events = Events()
        record = self.run(HashesNothing(), run_env, tmp_path, tiff_items(tmp_path, 4), 2,
                          listener=events)
        assert record.overall_state is orch.RunStage.FAILED
        assert events[-1][0] == "Failed"
        assert batch_errors(record) == batch_failures(events) == {
            0: "TransferFailed", 1: "TransferFailed"}

    def test_pending_array_tasks_cost_one_sacct_line(self, run_env, tmp_path):
        # One conversion array of 250 tasks, 4 running at a time: each
        # sacct prints a line per task that no longer pends and one for all
        # those that do, 8,436 lines over the run's 67 polls, where a line
        # per task named would be 15,817.
        cluster = SimCluster()
        sacct, printed, named = cluster._sacct, [], []

        def counting(tokens):
            result = sacct(tokens)
            printed.append(result.stdout.count("\n"))
            named.append(sum(len(cluster.jobs[int(job_id)].tasks)
                             for job_id in tokens[tokens.index("-j") + 1].split(",")))
            return result

        cluster._sacct = counting
        make_zarr_inputs(str(tmp_path / "inputs"), 250, chunks=1)
        record = self.run(cluster, run_env, tmp_path,
                          orch.scan_input_dir(str(tmp_path / "inputs")), 250)
        assert record.overall_state is orch.RunStage.DONE
        assert sum(printed) < 10_000 < sum(named)


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

    def test_collision_made_during_the_import_is_kept(self, tmp_path, monkeypatch):
        """A target that another process makes while the import makes its
        directory is not overwritten: the import stops with CollisionError
        and leaves that file byte-identical."""
        record = self._record_with_zip(tmp_path, {"masks/a.tiff": b"x"})
        target = tmp_path / "dst" / "r" / "masks" / "a.tiff"
        make_dirs = os.makedirs

        def makes_the_target_too(path, exist_ok=False):
            make_dirs(path, exist_ok=exist_ok)
            if os.path.normpath(path) == str(target.parent):
                target.write_bytes(b"theirs")

        monkeypatch.setattr(orch.os, "makedirs", makes_the_target_too)
        with pytest.raises(CollisionError):
            orch.import_results(record, str(tmp_path / "dst"), "ImagesFolder")
        assert target.read_bytes() == b"theirs"


    def test_single_zip_of_a_small_result_reads_no_whole_piece(self, tmp_path):
        # The copy's one buffer is no larger than the largest result zip,
        # not a PIECE of 1 MiB.
        record = self._record_with_zip(tmp_path, {"a.tiff": os.urandom(4096)})
        written, peak = traced_peak(
            lambda: orch.import_results(record, str(tmp_path / "dst"), "SingleZip"))
        assert peak < 128 << 10
        with open(written[0], "rb") as copy, open(record.batches[0].result_zip, "rb") as source:
            assert copy.read() == source.read()

    @pytest.mark.parametrize("mode", ["SingleZip", "ImagesFolder", "SidecarAttachments"])
    def test_import_holds_no_result_whole(self, tmp_path, mode):
        record = self._record_with_zip(tmp_path, {"a_mask.tiff": os.urandom(16 << 20)})
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            written = orch.import_results(record, str(tmp_path / "dst"), mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < 4 << 20
        assert len(written) == 1 and os.path.getsize(written[0]) >= 16 << 20


class TestFormatDetection:
    def test_extensions(self, tmp_path):
        make_tiff_inputs(str(tmp_path), 1)
        (tmp_path / "x.ome.tiff").write_bytes(b"II*")
        make_zarr_inputs(str(tmp_path), 1)
        (tmp_path / "nope.txt").write_bytes(b"t")
        assert [(item.id, item.format) for item in orch.scan_input_dir(str(tmp_path))] == [
            ("img00", orch.InputFormat.TIFF_2D), ("vol00", orch.InputFormat.ZARR),
            ("x", orch.InputFormat.OME_TIFF)]

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
        assert orch.scan_input_dir(str(tmp_path)) == [
            orch.InputItem("y", str(tmp_path / "y.tiff"), orch.InputFormat.TIFF_2D)]
