"""One benchmark run: a batched workflow run plus ImagesFolder import on a
freshly provisioned simulator, its correctness gate, and its metrics."""

import glob
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
import zipfile
from dataclasses import dataclass

from linkmodel import CountingEndpoint
from slurmbridge import config as config_mod
from slurmbridge import descriptor as descriptor_mod
from slurmbridge import orchestrator, slurm
from slurmbridge.simslurm import SimCluster, SimEndpoint
from tracing import LAYERS, self_times
from workloads import WORKLOADS

WORKFLOW = "cellpose"

CONFIG_TEXT = """\
[ssh]
host = hpc.example.org
user = omero
key_path = /etc/keys/id_ed25519
port = 22

[cluster]
scratch_dir = /scratch/omero

[defaults]
mem_mb = 4096
cpus = 2
gpus = 0
time_limit_min = 60

[converters]
zarr_to_tiff = demo/converter-zarr-tiff:v1.0.0

[workflow.cellpose]
repo_url = https://github.com/demo/W_NucleiSegmentation-Cellpose
version = v1.2.9
"""

DESCRIPTOR_TEXT = json.dumps({
    "name": "W_NucleiSegmentation-Cellpose",
    "schema-version": "cytomine-0.1",
    "container-image": {"image": "demo/w_nucleisegmentation-cellpose", "version": "v1.2.9"},
    "command-line": "python wrapper.py [DIAMETER]",
    "inputs": [{
        "id": "diameter",
        "name": "Diameter",
        "description": "Cell diameter in pixels",
        "type": "Number",
        "default-value": 30,
        "command-line-flag": "--diameter",
        "optional": True,
    }],
})

# Closed loop, one client: runs go back to back.
RUN_OPTIONS = dict(parallelism=2, poll_interval_s=10, sim_duration_s=30)

_STAGES = ("Preparing", "Transferring", "Queued", "Running", "Retrieving")
_FINAL_STAGES = ("Done", "Failed", "PartialFailure")


@dataclass
class Inputs:
    workload: str
    directory: str
    items: list
    sizes: dict  # local input path -> bytes (whole tree for ZARR)
    profile: object
    registry: object
    descriptor: object

    @property
    def batch_size(self):
        return WORKLOADS[self.workload].batch_size


def cpu_seconds():
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(path) for name in files
    )


def prepare(workload, directory):
    """Parse the config and descriptor and scan the generated inputs."""
    profile, registry = config_mod.parse_config(CONFIG_TEXT)
    descriptor = descriptor_mod.parse_descriptor(DESCRIPTOR_TEXT)
    items = orchestrator.scan_input_dir(directory)
    sizes = {item.local_path: _tree_bytes(item.local_path) for item in items}
    return Inputs(workload, directory, items, sizes, profile, registry, descriptor)


def provision(inputs):
    """A new default simulator (2 nodes x 4 CPUs) with the environment set up."""
    cluster = SimCluster()
    slurm.init_environment(SimEndpoint(cluster), inputs.profile, inputs.registry)
    return cluster


def check_run(inputs, record, written, cluster):
    """Correctness gate; returns the list of problems found."""
    problems = []
    if record.overall_state is not orchestrator.RunStage.DONE:
        problems.append(f"state {record.overall_state.value}")
    for batch in record.batches:
        expected = sorted(f"{item_id}_mask.tiff" for item_id in batch.items)
        if not batch.result_zip:
            problems.append(f"batch {batch.index}: no result zip")
            continue
        with zipfile.ZipFile(batch.result_zip) as archive:
            names = sorted(i.filename for i in archive.infolist() if not i.is_dir())
        if names != expected:
            problems.append(f"batch {batch.index}: zip holds {len(names)} entries, "
                            f"expected {len(expected)} masks")
    expected_files = sorted(f"{item.id}_mask.tiff" for item in inputs.items)
    if sorted(os.path.basename(path) for path in written) != expected_files:
        problems.append(f"import wrote {len(written)} files for {len(inputs.items)} items")
    run_data = f"{inputs.profile.scratch_dir}/data/{record.run_id}"
    if any(p == run_data or p.startswith(run_data + "/")
           for p in list(cluster.fs.files) + list(cluster.fs.dirs)):
        problems.append("remote run data left behind")
    live = [job.id for job in cluster.jobs.values()
            if not all(task.state.terminal for task in job.tasks)]
    if live:
        problems.append(f"jobs not terminal: {live}")
    if glob.glob(os.path.join(tempfile.gettempdir(), f"slurmbridge-{record.run_id}-*")):
        problems.append("local staging dir left behind")
    return problems


def _cluster_metrics(cluster):
    tasks = [(job, task) for job in cluster.jobs.values() for task in job.tasks]
    started = [(job, task) for job, task in tasks if task.start_time is not None]
    busy = sum((task.finish_time - task.start_time) * job.resources["cpus"]
               for job, task in started)
    capacity = sum(node.cpus for node in cluster.nodes) * cluster.clock
    waits = [task.start_time - job.submit_time for job, task in started]
    return {
        "simslurm.events": len(cluster.event_log),
        "simslurm.queue_wait_s": statistics.fmean(waits) if waits else 0.0,
        "simslurm.cpu_util": busy / capacity if capacity else 0.0,
    }


def _stage_metrics(marks):
    """Wall seconds per stage from the (time, stage) listener marks."""
    at = {}
    for moment, stage in marks:
        at.setdefault(stage, moment)
    ends = list(_STAGES[1:]) + [next((s for s in _FINAL_STAGES if s in at), None)]
    return {
        f"orchestrator.{stage.lower()}_s": at[end] - at[stage]
        for stage, end in zip(_STAGES, ends)
        if stage in at and end in at
    }


def run_once(inputs, cluster, out_dir, tracer=None):
    """Run the workflow and import its results; returns (metrics, problems).

    Only the two program calls are timed. A failed run yields no metrics.
    """
    endpoint = CountingEndpoint(SimEndpoint(cluster))
    if tracer is not None:
        tracer.instrument(endpoint, cluster)
    marks = []

    def listener(stage, detail):
        marks.append((time.perf_counter(), stage))

    try:
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        record = orchestrator.run_workflow_batched(
            endpoint, inputs.profile, inputs.registry, inputs.descriptor, WORKFLOW,
            {}, inputs.items, inputs.batch_size,
            options=orchestrator.RunOptions(**RUN_OPTIONS),
            local_output_dir=os.path.join(out_dir, "results"), listener=listener,
        )
        written = orchestrator.import_results(
            record, os.path.join(out_dir, "imported"), "ImagesFolder"
        )
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_started
        problems = check_run(inputs, record, written, cluster)
    except Exception:  # the benchmark goes on; the run counts as failed
        return None, [traceback.format_exc(limit=3)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if problems:
        return None, problems

    client_s = wall - endpoint.busy_s - endpoint.sleep_s
    metrics = {
        "run_wall_s": wall,
        "run_cpu_s": cpu,
        "cluster_wait_s": endpoint.cluster_wait_s,
        "overhead_s": client_s + endpoint.modelled_s,
        "time_to_results_s": client_s + endpoint.modelled_s + endpoint.cluster_wait_s,
        "orchestrator.client_s": client_s,
        "transport.ops": endpoint.ops,
        "transport.launches": endpoint.launches,
        "transport.bytes_up": endpoint.bytes_up,
        "transport.bytes_down": endpoint.bytes_down,
        "transport.busy_s": endpoint.busy_s,
        "transport.failed": endpoint.failed,
        "transport.modelled_s": endpoint.modelled_s,
    }
    for kind in ("exec", "put_file", "get_file", "path_exists", "make_dirs", "remove_tree"):
        metrics[f"transport.{kind}.count"] = endpoint.counts[kind]
    metrics.update(_cluster_metrics(cluster))
    metrics.update(_stage_metrics(marks))
    if tracer is not None:
        metrics.update(trace_metrics(tracer))
    return metrics, []


def trace_metrics(tracer):
    """Per-layer sums for the current traced run, from its spans and counters."""
    spans = tracer.run_spans(tracer.run_id)
    own = self_times(spans)
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    seconds, calls = {}, {}
    for span_id, name, start, end, _, _ in spans:
        metrics[f"{name.split('.', 1)[0]}.self_s"] += own[span_id]
        seconds[name] = seconds.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    metrics["trace.spans"] = len(spans)
    metrics["trace.self_sum_s"] = sum(own.values())
    for name in ("slurm.poll_jobs", "slurm.submit_job", "simslurm.advance"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in ("slurm.poll_jobs", "slurm.submit_job", "slurm.fetch_results",
                 "slurm.fetch_logfile", "slurm.cleanup_run", "simslurm.advance",
                 "simslurm.sbatch", "simslurm.sacct", "simslurm.zip", "simslurm.unzip",
                 "orchestrator.import_results"):
        metrics[f"{name}.s"] = seconds.get(name, 0.0)
    metrics["orchestrator.pack.s"] = seconds.get("orchestrator.pack_inputs", 0.0)
    generate = ("jobscript.generate_workflow_script", "jobscript.generate_conversion_script")
    metrics["jobscript.generate.calls"] = sum(calls.get(n, 0) for n in generate)
    metrics["jobscript.generate.s"] = sum(seconds.get(n, 0.0) for n in generate)
    # Parse cost of poll_jobs: its span minus the remote call inside it.
    metrics["slurm.poll_jobs.self_s"] = sum(
        own[span[0]] for span in spans if span[1] == "slurm.poll_jobs"
    )
    counters = tracer.counters
    metrics["slurm.sacct_lines"] = counters["sacct_lines"]
    metrics["slurm.poll_useful"] = counters["poll.useful"]
    metrics["orchestrator.pack.in_bytes"] = counters["pack.in_bytes"]
    metrics["orchestrator.pack.out_bytes"] = counters["pack.out_bytes"]
    return metrics
