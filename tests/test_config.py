import itertools

import pytest

from slurmbridge import config as c
from slurmbridge.errors import (
    InvalidValue,
    MalformedConfig,
    MissingSection,
    UnknownWorkflow,
)

MINIMAL = """\
[ssh]
host = hpc.example.org
user = omero
key_path = /etc/keys/id

[cluster]
scratch_dir = /scratch/omero
"""


def test_parse_minimal_empty_registry():
    profile, registry = c.parse_config(MINIMAL)
    assert profile.host == "hpc.example.org"
    assert profile.port == 22
    assert profile.scratch_dir == "/scratch/omero"
    assert profile.zarr_to_tiff is None
    assert registry.entries == {}


def test_parse_sample_has_cellpose(sample_profile_registry):
    profile, registry = sample_profile_registry
    assert "cellpose" in registry.entries
    assert profile.zarr_to_tiff == "demo/converter-zarr-tiff:v1.0.0"


def test_missing_sections():
    with pytest.raises(MissingSection) as info:
        c.parse_config("[cluster]\nscratch_dir = /s\n")
    assert info.value.section == "ssh"
    with pytest.raises(MissingSection) as info:
        c.parse_config("[ssh]\nhost = h\nuser = u\n")
    assert info.value.section == "cluster"


def test_malformed_ini_reports_line():
    bad = MINIMAL + "[workflow.x]\nthis line has no delimiter\n"
    with pytest.raises(MalformedConfig) as info:
        c.parse_config(bad)
    assert info.value.lineno is not None


def test_relative_scratch_dir_rejected():
    text = MINIMAL.replace("/scratch/omero", "relative/path")
    with pytest.raises(InvalidValue):
        c.parse_config(text)


def test_non_numeric_resource_rejected():
    text = MINIMAL + "[workflow.x]\nrepo_url = https://x/y\nversion = v1\ncpus = many\n"
    with pytest.raises(InvalidValue):
        c.parse_config(text)


def test_layered_defaulting_partial_override():
    # Oracle: hand-applied layering, fallbacks {4096, 2, 0, 60}.
    text = MINIMAL + "[workflow.x]\nrepo_url = https://x/y\nversion = v1\ngpus = 1\n"
    _, registry = c.parse_config(text)
    assert registry.entries["x"].resources == c.ResourceSpec(4096, 2, 1, 60)


def test_defaults_section_layer():
    # Oracle: layered merge by hand: mem from [defaults], cpus from workflow.
    text = (
        MINIMAL
        + "[defaults]\nmem_mb = 8192\n"
        + "[workflow.x]\nrepo_url = https://x/y\nversion = v1\ncpus = 8\n"
    )
    _, registry = c.parse_config(text)
    assert registry.entry("x").resources == c.ResourceSpec(8192, 8, 0, 60)


def test_section_order_independence():
    sections = [
        "[ssh]\nhost = h\nuser = u\nkey_path = /k\n",
        "[cluster]\nscratch_dir = /s\n",
        "[defaults]\nmem_mb = 8192\n",
        "[workflow.x]\nrepo_url = https://x/y\nversion = v1\ncpus = 8\n",
    ]
    expected = None
    for order in itertools.permutations(sections):
        _, registry = c.parse_config("\n".join(order))
        resolved = registry.entry("x").resources
        if expected is None:
            expected = resolved
        assert resolved == expected


def test_effective_resources_full_override_identity():
    text = MINIMAL + (
        "[workflow.x]\nrepo_url = https://x/y\nversion = v1\n"
        "mem_mb = 1024\ncpus = 1\ngpus = 2\ntime_limit_min = 5\n"
    )
    _, registry = c.parse_config(text)
    assert registry.entry("x").resources == c.ResourceSpec(1024, 1, 2, 5)


def test_effective_resources_unknown():
    _, registry = c.parse_config(MINIMAL)
    with pytest.raises(UnknownWorkflow):
        registry.entry("nope")


def test_resolve_workflow_derivation():
    # Oracle: stated lowercasing rule over the repo basename.
    text = MINIMAL + (
        "[registry]\nnamespace = ns\n"
        "[workflow.spots]\n"
        "repo_url = https://github.com/demo/W_SpotCounting-CellProfiler\n"
        "version = v1.0.0\n"
    )
    _, registry = c.parse_config(text)
    assert c.image_reference(registry, "spots") == "ns/w_spotcounting-cellprofiler:v1.0.0"


def test_resolve_workflow_unknown():
    _, registry = c.parse_config(MINIMAL)
    with pytest.raises(UnknownWorkflow):
        c.image_reference(registry, "missing")


def test_resolve_workflow_image_override():
    text = MINIMAL + (
        "[workflow.x]\nrepo_url = https://x/y\nversion = v2\nimage = other/img:v2\n"
    )
    _, registry = c.parse_config(text)
    assert c.image_reference(registry, "x") == "other/img:v2"


def test_descriptor_path_kept_as_written():
    text = MINIMAL + (
        "[workflow.x]\nrepo_url = https://x/y\nversion = v2\n"
        "[workflow.z]\nrepo_url = https://x/z\nversion = v1\ndescriptor_path = d/z.json\n"
    )
    _, registry = c.parse_config(text)
    assert registry.entry("x").descriptor_path is None
    assert registry.entry("z").descriptor_path == "d/z.json"


def test_repo_url_must_be_url():
    text = MINIMAL + "[workflow.x]\nrepo_url = not-a-url\nversion = v1\n"
    with pytest.raises(InvalidValue):
        c.parse_config(text)


def test_converter_key_format():
    text = MINIMAL + "[converters]\nbadkey = img\n"
    with pytest.raises(InvalidValue):
        c.parse_config(text)


@pytest.mark.parametrize("key", ["zarr_to_tif", "tiff_to_zarr", "zarr_to_png"])
def test_converter_other_than_zarr_to_tiff_is_refused(key):
    """ZARR -> TIFF is the one conversion: any other key, a typo included,
    is refused when the config is parsed, not when a run needs it."""
    with pytest.raises(InvalidValue) as info:
        c.parse_config(MINIMAL + f"[converters]\n{key} = img\n")
    assert info.value.key == f"converters.{key}"
