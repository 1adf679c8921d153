"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import functools
import glob
import hashlib
import itertools
import math
import os
import random
import sys
import tempfile
import time
import zipfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slurmbridge import descriptor as descriptor_mod
from slurmbridge import jobscript as js
from slurmbridge import orchestrator as orch
from slurmbridge import slurm
from slurmbridge.config import ResourceSpec, parse_config
from slurmbridge.simslurm import FaultDirective, SimCluster, SimEndpoint
from slurmbridge.states import JobState, aggregate_array_states
from tests.conftest import (
    SAMPLE_CONFIG,
    fs_snapshot,
    is_reachable,
    make_tiff_inputs,
    make_zarr_inputs,
    parent_state,
    record_signature,
    render_event_trace,
    serialize_descriptor,
)
from tests.test_descriptor import descriptors, descriptors_with_values, validated
from tests.test_orchestrator import (
    SUBMISSION,
    UPLOAD_MV,
    UPLOAD_SHA256SUM,
    FlakyLink,
    GrammarOnly,
    Holding,
    assert_no_job_outlives_its_data,
)
from tests.test_simslurm import brute_force_aggregate, random_schedule

SCRATCH = "/scratch/omero"

# Runs performed by criteria 1-3, inspected again by criterion 10.
_finished_runs = []


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [{title}]: FAIL", file=sys.__stdout__)
                raise
            print(f"criterion {number:2d} [{title}]: PASS", file=sys.__stdout__)
        return wrapper
    return decorate


def fresh_env(descriptor, cluster=None):
    """Initialized simulator (2 nodes x 4 cpus by default) plus the sample
    registry."""
    profile, registry = parse_config(SAMPLE_CONFIG)
    endpoint = SimEndpoint(cluster or SimCluster())
    slurm.init_environment(endpoint, profile, registry)
    return endpoint, profile, registry


def run_options(**overrides):
    defaults = dict(poll_interval_s=5)
    defaults.update(overrides)
    return orch.RunOptions(**defaults)


def capture_out_checksums(endpoint):
    """Capture the remote out-dir hashes just before the first remote zip,
    the one that bundles the results; returns the dict it fills."""
    captured = {}
    sim_exec = endpoint.cluster.sim_exec

    def capturing(command):
        if command[0] == "zip" and not captured:
            fs = endpoint.cluster.fs
            for path in fs.files:
                if path.startswith(f"{SCRATCH}/data/"):
                    captured[path] = hashlib.sha256(fs.read(path)).hexdigest()
        return sim_exec(command)

    # The commands of a launch run through the instance's sim_exec.
    endpoint.cluster.sim_exec = capturing
    return captured


def staging_leftovers(run_id):
    pattern = os.path.join(tempfile.gettempdir(), f"slurmbridge-{run_id}-*")
    return [p for root in glob.glob(pattern)
            for p, _, files in os.walk(root) for _ in files] + glob.glob(pattern)


@criterion(1, "end-to-end batched run")
def test_criterion_01_batched_run(cellpose_descriptor, tmp_path):
    endpoint, profile, registry = fresh_env(cellpose_descriptor)
    make_tiff_inputs(str(tmp_path / "inputs"), 12)
    items = orch.scan_input_dir(str(tmp_path / "inputs"))
    captured = capture_out_checksums(endpoint)

    started = time.monotonic()
    record = orch.run_workflow_batched(
        endpoint, profile, registry, cellpose_descriptor, "cellpose",
        {}, items, 5, options=run_options(),
        local_output_dir=str(tmp_path / "out"),
    )
    elapsed = time.monotonic() - started

    assert elapsed < 10.0
    assert record.overall_state is orch.RunStage.DONE

    workflow_jobs = [j for j in endpoint.cluster.jobs.values()
                     if j.script_path.endswith("job.sh")]
    assert len(workflow_jobs) == math.ceil(12 / 5) == 3

    zips = sorted(p for p in record.output_artifacts if p.endswith(".zip"))
    assert len(zips) == 3
    for index, zip_path in enumerate(zips):
        remote_prefix = f"{SCRATCH}/data/{record.run_id}/batch{index}/out"
        expected = {p[len(remote_prefix) + 1:]: digest
                    for p, digest in captured.items()
                    if p.startswith(remote_prefix + "/")}
        with zipfile.ZipFile(zip_path) as archive:
            actual = {name: hashlib.sha256(archive.read(name)).hexdigest()
                      for name in archive.namelist()}
        assert actual == expected and expected

    _finished_runs.append((endpoint, record.run_id))


@criterion(2, "failed batch retrieves log only")
def test_criterion_02_partial_failure(cellpose_descriptor, tmp_path):
    endpoint, profile, registry = fresh_env(cellpose_descriptor)
    endpoint.cluster.inject_fault(
        FaultDirective(script_substring="batch1/job.sh",
                       forced_state=JobState.FAILED))
    make_tiff_inputs(str(tmp_path / "inputs"), 12)
    items = orch.scan_input_dir(str(tmp_path / "inputs"))
    record = orch.run_workflow_batched(
        endpoint, profile, registry, cellpose_descriptor, "cellpose",
        {}, items, 5, options=run_options(),
        local_output_dir=str(tmp_path / "out"),
    )
    assert record.overall_state is orch.RunStage.PARTIAL_FAILURE
    zips = [p for p in record.output_artifacts if p.endswith(".zip")]
    assert len(zips) == 2
    assert not any(f"batch1" in os.path.basename(p) for p in zips)
    failed = record.batches[1]
    assert failed.state is JobState.FAILED
    assert failed.result_zip is None
    assert failed.logfile and os.path.exists(failed.logfile)
    _finished_runs.append((endpoint, record.run_id))


@criterion(3, "conversion array precedes workflow")
def test_criterion_03_conversion_ordering(cellpose_descriptor, tmp_path):
    endpoint, profile, registry = fresh_env(cellpose_descriptor)
    make_zarr_inputs(str(tmp_path / "inputs"), 6)
    items = orch.scan_input_dir(str(tmp_path / "inputs"))
    record = orch.run_workflow_batched(
        endpoint, profile, registry, cellpose_descriptor, "cellpose",
        {}, items, len(items), options=run_options(),
        local_output_dir=str(tmp_path / "out"),
    )
    assert record.overall_state is orch.RunStage.DONE
    batch = record.batches[0]
    conv_id = batch.conversion_handle.job_id
    wf_id = batch.workflow_handle.job_id
    assert endpoint.cluster.jobs[conv_id].array_spec == (0, 5)

    trace = render_event_trace(endpoint.cluster).splitlines()
    conv_done = [i for i, line in enumerate(trace)
                 if line.split()[1].startswith(f"{conv_id}_")
                 and line.endswith("->COMPLETED")]
    wf_started = [i for i, line in enumerate(trace)
                  if line.split()[1] == str(wf_id)
                  and line.endswith("PENDING->RUNNING")]
    assert len(conv_done) == 6 and wf_started
    assert max(conv_done) < min(wf_started)
    _finished_runs.append((endpoint, record.run_id))


@criterion(4, "environment provisioning idempotence")
def test_criterion_04_init_idempotence(sample_profile_registry):
    profile, registry = sample_profile_registry
    endpoint = SimEndpoint(SimCluster())

    first = slurm.init_environment(endpoint, profile, registry)
    snapshot_one = fs_snapshot(endpoint.cluster.fs)
    second = slurm.init_environment(endpoint, profile, registry)
    snapshot_two = fs_snapshot(endpoint.cluster.fs)

    assert snapshot_one == snapshot_two
    assert not first.refreshed and second.refreshed
    assert first.pulled_images and not second.pulled_images
    assert sorted(first.created_dirs) == sorted(
        f"{SCRATCH}/{d}" for d in
        ("singularity_images", "slurm-scripts/jobs", "data", "logs"))


@criterion(5, "job-script golden files")
def test_criterion_05_jobscript_golden(cellpose_descriptor):
    paths = js.RunPaths(
        in_dir=f"{SCRATCH}/data/RUN/in",
        out_dir=f"{SCRATCH}/data/RUN/out",
        gt_dir=f"{SCRATCH}/data/RUN/gt",
        image_file=f"{SCRATCH}/singularity_images/cellpose_v1.2.9.sif",
    )
    logs_dir = f"{SCRATCH}/logs"
    values = descriptor_mod.validate_values(cellpose_descriptor, {})

    cpu = js.generate_workflow_script(
        cellpose_descriptor, ResourceSpec(4096, 2, 0, 60), values, paths, logs_dir)
    golden_path = os.path.join(os.path.dirname(__file__), "data", "workflow_cpu.sh")
    with open(golden_path, "rb") as handle:
        assert js.render_script(cpu).encode() == handle.read()

    gpu = js.generate_workflow_script(
        cellpose_descriptor, ResourceSpec(4096, 2, 1, 60), values, paths, logs_dir)
    extra = sorted(set(js.render_script(gpu).splitlines())
                   - set(js.render_script(cpu).splitlines()))
    assert extra == ["#SBATCH --gres=gpu:1"]

    rendered = js.render_script(gpu)
    assert js.parse_script(rendered).directives == list(gpu.directives)


@criterion(6, "descriptor property suite")
def test_criterion_06_descriptor_properties():
    @settings(max_examples=200, deadline=None)
    @given(descriptors())
    def round_trip(descriptor):
        again = descriptor_mod.parse_descriptor(serialize_descriptor(descriptor))
        assert again == descriptor

    @settings(max_examples=200, deadline=None)
    @given(descriptors_with_values())
    def provenance_and_idempotence(pair):
        descriptor, supplied = pair
        values = validated(descriptor, supplied)
        if values is None:
            return
        assert descriptor_mod.validate_values(descriptor, values) == values
        template_tokens = set(descriptor.command_line_template.split())
        flags = {p.cli_flag for p in descriptor.params}
        rendered = {descriptor_mod.render_value(v) for v in values.values()}
        for token in descriptor_mod.render_cli_args(descriptor, values):
            assert token in template_tokens or token in flags or token in rendered

    round_trip()
    provenance_and_idempotence()


@criterion(7, "state-machine transition discipline")
def test_criterion_07_state_machine():
    for seed in range(500):
        rng = random.Random(seed)
        cluster = SimCluster()
        job_ids = random_schedule(cluster, rng, f"s{seed}")
        observed = {}
        for _ in range(rng.randint(3, 8)):
            cluster.advance(rng.randint(0, 40))
            if rng.random() < 0.15 and job_ids:
                cluster.sim_exec(["scancel", str(rng.choice(job_ids))])
            for job_id in job_ids:
                state = parent_state(cluster.jobs[job_id])
                if job_id in observed:
                    assert is_reachable(observed[job_id], state), (
                        seed, job_id, observed[job_id], state)
                observed[job_id] = state

    for n in range(1, 6):
        for combo in itertools.product(list(JobState), repeat=n):
            assert aggregate_array_states(combo) == brute_force_aggregate(combo)


@criterion(8, "determinism and resource safety")
def test_criterion_08_determinism_resource_safety():
    def build_trace(seed):
        rng = random.Random(seed)
        cluster = SimCluster()
        random_schedule(cluster, rng, "d")
        for _ in range(6):
            cluster.advance(rng.randint(1, 50))
        return render_event_trace(cluster)

    for seed in (0, 7, 1234):
        assert build_trace(seed).encode() == build_trace(seed).encode()

    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        nodes = [{"cpus": rng.randint(1, 4), "gpus": rng.randint(0, 1),
                  "mem_mb": rng.choice([2048, 8192])}
                 for _ in range(rng.randint(1, 3))]
        cluster = SimCluster(nodes=nodes)
        random_schedule(cluster, rng, f"r{seed}")
        for _ in range(4):
            cluster.advance(rng.randint(1, 60))  # commit() asserts capacity
            for node in cluster.nodes:
                assert 0 <= node.used_cpus <= node.cpus
                assert 0 <= node.used_gpus <= node.gpus
                assert 0 <= node.used_mem <= node.mem_mb


@criterion(9, "batched/unbatched equivalence")
def test_criterion_09_equivalence(cellpose_descriptor, tmp_path):
    make_tiff_inputs(str(tmp_path / "inputs"), 4)
    items = orch.scan_input_dir(str(tmp_path / "inputs"))

    def run_single():
        endpoint, profile, registry = fresh_env(cellpose_descriptor)
        return orch.run_workflow_batched(
            endpoint, profile, registry, cellpose_descriptor, "cellpose",
            {}, items, len(items), options=run_options(),
            local_output_dir=str(tmp_path / "out-a"))

    def run_batched(batch_size):
        endpoint, profile, registry = fresh_env(cellpose_descriptor)
        return orch.run_workflow_batched(
            endpoint, profile, registry, cellpose_descriptor, "cellpose",
            {}, items, batch_size, options=run_options(),
            local_output_dir=str(tmp_path / "out-b"))

    single = record_signature(run_single())
    assert single == record_signature(run_batched(4))
    assert single == record_signature(run_batched(99))


@criterion(10, "cleanup invariant")
def test_criterion_10_cleanup():
    assert len(_finished_runs) == 3  # criteria 1-3 each registered a run
    for endpoint, run_id in _finished_runs:
        remote_root = f"{SCRATCH}/data/{run_id}"
        assert not endpoint.path_exists(remote_root)
        assert not any(path.startswith(remote_root)
                       for path in endpoint.cluster.fs.files)
        assert endpoint.path_exists(f"{SCRATCH}/logs")
        assert staging_leftovers(run_id) == []


@criterion(11, "no job outlives its data")
def test_criterion_11_no_job_outlives_its_data(cellpose_descriptor, tmp_path):
    make_tiff_inputs(str(tmp_path / "inputs"), 9)
    make_zarr_inputs(str(tmp_path / "inputs"), 9)
    scanned = orch.scan_input_dir(str(tmp_path / "inputs"))
    pools = {fmt: [item for item in scanned if item.format is fmt]
             for fmt in (orch.InputFormat.TIFF_2D, orch.InputFormat.ZARR)}

    # Each batch draws its input format and a forced state for its workflow
    # job or its conversion array. On one node of three CPUs, beside a 2-CPU
    # workflow job, an array of three one-CPU tasks runs in three waves, so a
    # failed array's parent state can read FAILED while a task runs on past
    # the end of a 10 s workflow job; the example pins that case.
    @settings(max_examples=60, deadline=None)
    @given(lost_polls=st.lists(st.booleans(), max_size=8),
           submission_lost=st.booleans(),
           retrieval_lost=st.booleans(),
           upload_lost=st.sampled_from([None, UPLOAD_SHA256SUM, UPLOAD_MV]),
           deadline_s=st.sampled_from([None, 0, 5, 15, 40]),
           batches=st.lists(st.tuples(
               st.sampled_from(list(pools)), st.sampled_from(["job.sh", "convert.sh"]),
               st.sampled_from([None, JobState.FAILED, JobState.TIMEOUT])),
               min_size=1, max_size=3),
           one_node=st.booleans(),
           batch_size=st.sampled_from([2, 3]),
           workflow_s=st.sampled_from([10, 30]))
    @example(lost_polls=[], submission_lost=False, retrieval_lost=False, upload_lost=None,
             deadline_s=None, one_node=True, batch_size=3, workflow_s=10,
             batches=[(orch.InputFormat.TIFF_2D, "job.sh", None),
                      (orch.InputFormat.ZARR, "convert.sh", JobState.FAILED)])
    def no_job_outlives_its_data(lost_polls, submission_lost, retrieval_lost, upload_lost,
                                 deadline_s, batches, one_node, batch_size, workflow_s):
        nodes = [{"cpus": 3, "gpus": 0, "mem_mb": 16384}] if one_node else None
        endpoint, profile, registry = fresh_env(cellpose_descriptor, GrammarOnly(nodes))
        endpoint.cluster.inject_fault(FaultDirective(script_substring="job.sh",
                                                     duration_s=workflow_s))
        items = []
        for index, (fmt, script, state) in enumerate(batches):
            items += pools[fmt][batch_size * index:batch_size * (index + 1)]
            if state is not None:
                endpoint.cluster.inject_fault(FaultDirective(
                    script_substring=f"batch{index}/{script}", forced_state=state))
        # The submission, the launch that brings the results back and the
        # upload's sha256sum or mv are lost after they ran; each drawn
        # launch that holds a squeue or a sacct (a poll, the guarded launch
        # that ends the run, or the ending after a give-up) is lost before
        # it runs. The finally's teardown holds neither, so no draw loses it.
        faults = [(at, "lost-after") for at, lost in (
            (SUBMISSION, submission_lost), ("base64", retrieval_lost),
            (upload_lost, upload_lost is not None)) if lost]
        faults += [(Holding({"squeue", "sacct"}, n), "lost-before")
                   for n, lost in enumerate(lost_polls) if lost]
        orch.run_workflow_batched(
            FlakyLink(endpoint.cluster, faults), profile, registry,
            cellpose_descriptor, "cellpose", {}, items, batch_size,
            options=run_options(deadline_s=deadline_s),
            local_output_dir=str(tmp_path / "out"))
        assert endpoint.cluster.refused == []
        assert_no_job_outlives_its_data(
            endpoint.cluster, registry.entry("cellpose").resources.time_limit_min)

    no_job_outlives_its_data()
