"""List the functions under src/ that the CLI smoke run never enters.

The smoke run is CI's "CLI smoke run on the simulator" step: it validates a
descriptor, lists the workflows, makes a simulated cluster, runs a workflow
on it, refuses bad runs, reads the run's status and logs, fetches its
results three ways, cancels it, and runs on a cluster too small for any job.
This script makes the same CLI calls, in this process and in a new
temporary directory, under a sys.setprofile collector; it prints how many
of the package's functions they entered, then, per module, each function
that none entered, with the reason it is kept when KEPT records one. It
uses the standard library only, and it gates nothing.

Run from the repository root:

    python tests/product_lines.py"""

import ast
import contextlib
import fnmatch
import io
import json
import os
import pathlib
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Functions that no CLI command of the smoke run enters but that stay, and
# why: (fnmatch pattern of `<module>.<qualified name>`, reason).
_PERFBENCH = "perfbench wraps it and pins its launches until it counts processes " \
             "(ROADMAP items 1b and 3)"
KEPT = [
    ("transport.Endpoint.get_file", _PERFBENCH),
    ("transport.Endpoint.path_exists", _PERFBENCH),
    ("transport.Endpoint.make_dirs", _PERFBENCH),
    ("transport.Endpoint.remove_tree", _PERFBENCH),
    ("transport.Endpoint.put_bytes", _PERFBENCH),
    ("simslurm.SimEndpoint._copy_down", "Endpoint.get_file's copy on the simulator; "
                                        + _PERFBENCH),
    ("slurm.poll_jobs", "reads accounting in a round after the teardown, while it lags, "
                        "and for `status` of an unfinished run"),
    ("simslurm.SimCluster.inject_fault", "the simulator's fault API"),
    ("simslurm.SimCluster._refuse", "answers a command form that the client never sends"),
    ("transport.Endpoint.exec", "abstract: each backend implements it"),
    ("transport.Endpoint._copy_*", "abstract: each backend implements it"),
    ("transport.Endpoint.sleep", "SshEndpoint's wait between polls; the simulator's "
                                 "advances its clock instead"),
    ("transport.SshEndpoint.*", "needs an sshd; tier-1's shell_router runs it"),
    ("errors.*.__init__", "builds an error of a failure that the smoke run does not meet"),
]

CELLPOSE = {
    "name": "W_NucleiSegmentation-Cellpose", "schema-version": "cytomine-0.1",
    "container-image": {"image": "demo/w_nucleisegmentation-cellpose", "version": "v1.2.9"},
    "command-line": "python wrapper.py [DIAMETER] [LABEL]",
    "inputs": [{"id": "diameter", "name": "Diameter", "type": "Number",
                "default-value": 30, "command-line-flag": "--diameter", "optional": True},
               {"id": "label", "name": "Label", "type": "String",
                "command-line-flag": "--label", "optional": True}],
}

CONFIG = """\
[ssh]
host = hpc.example.org
user = omero

[cluster]
scratch_dir = /scratch/omero

[registry]
namespace = demo

[converters]
zarr_to_tiff = demo/converter-zarr-tiff:v1.0.0

[workflow.cellpose]
repo_url = https://github.com/demo/W_NucleiSegmentation-Cellpose
version = v1.2.9
descriptor_path = cellpose.json
"""


def write(path, data):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode()
    path.write_bytes(data)


def make_inputs():
    """The smoke run's files, in the current directory."""
    write("cellpose.json", json.dumps(CELLPOSE))
    write("slurm-config.ini", CONFIG)
    for i in range(3):
        write(f"images/img{i}.tiff", b"II*\0synthetic tiff %d" % i)
    write("images/big.tiff", b"II*\0" + os.urandom(3 << 20))
    write("images/img3.zarr/.zattrs", "{}")
    write("images/img3.zarr/0/0", "chunk 0")
    write("bad-topology.json", '[{"cpus": 4}]')
    write("dup/x.tiff", b"II*\0x")
    write("dup/x.zarr/.zattrs", "{}")
    write("small.json", '[{"cpus": 1, "mem_mb": 512}]')


def cli(main, *args):
    """Run one CLI command; returns what it printed on stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(list(args), prog_name="slurmbridge")
        except SystemExit:
            pass
    return out.getvalue()


def run_id_of(output):
    return next(line[len("run_id="):] for line in output.splitlines()
                if line.startswith("run_id="))


def smoke(main):
    """The smoke run's CLI commands, in its order."""
    make_inputs()
    cli(main, "validate", "cellpose.json")
    cli(main, "list")
    cli(main, "init", "--simulate", "sim.json")
    cli(main, "init", "--simulate", "bad-topology.json")
    run = ["run", "cellpose", "--input", "images", "--simulate", "sim.json"]
    run_id = run_id_of(cli(main, *run, "--batch-size", "2", "--output", "results",
                           "--param", "label=a b $(id) *"))
    for bad in (["--batch-size", "-1"], ["--param", "diameter=inf"], ["--param", "label=a\nb"]):
        cli(main, *run, "--output", "results", *bad)
    cli(main, "run", "cellpose", "--input", "dup", "--simulate", "sim.json",
        "--output", "results")
    cli(main, "status", run_id)
    cli(main, "logs", run_id, "--dir", "results")
    for destination, mode in (("imported", "ImagesFolder"), ("copied", "SingleZip"),
                              ("sidecar", "SidecarAttachments")):
        cli(main, "fetch", run_id, destination, "--from", "results", "--mode", mode)
    cli(main, "cancel", run_id, "--simulate", "sim.json")
    cli(main, "status", run_id)
    cli(main, "init", "--simulate", "small.json")
    small_id = run_id_of(cli(main, *run[:-1], "small.json", "--batch-size", "2",
                             "--output", "small-results"))
    cli(main, "status", small_id)


def functions(path):
    """(first line, qualified name) of every function defined in the module
    at path; the first line is that of its first decorator, as a code
    object's co_firstlineno counts it."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((first, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main():
    entered = set()

    def collect(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(SRC))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="product-lines-") as scratch:
        os.chdir(scratch)
        sys.setprofile(collect)
        try:
            from slurmbridge import cli as cli_mod
            smoke(cli_mod.main)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)

    entered = {(os.path.realpath(filename), first) for filename, first in entered}
    package = pathlib.Path(cli_mod.__file__).resolve().parent
    total, missed = 0, {}
    for path in sorted(package.glob("*.py")):
        defined = functions(path)
        total += len(defined)
        missed[path.stem] = [name for first, name in defined if (str(path), first) not in entered]
    print(f"{total - sum(map(len, missed.values()))} of {total} functions under src/ entered")
    for module, names in missed.items():
        for name in names:
            reason = next((reason for pattern, reason in KEPT
                           if fnmatch.fnmatchcase(f"{module}.{name}", pattern)),
                          "no reason recorded")
            print(f"{module}.{name}: {reason}")


if __name__ == "__main__":
    main()
