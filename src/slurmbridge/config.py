"""Cluster configuration: endpoint settings, scratch layout, workflow registry.

The config is an INI document with sections [ssh], [cluster], [registry],
[defaults], [converters], and one [workflow.<name>] section per registered
workflow.
"""

import configparser
import posixpath
from dataclasses import dataclass

from .errors import InvalidValue, MalformedConfig, MissingSection, UnknownWorkflow

# Fallback resources applied beneath [defaults] and per-workflow overrides;
# its keys are the resource keys a config may set.
_FALLBACK_RESOURCES = {"mem_mb": 4096, "cpus": 2, "gpus": 0, "time_limit_min": 60}


@dataclass(frozen=True)
class ResourceSpec:
    mem_mb: int
    cpus: int
    gpus: int
    time_limit_min: int

    def __post_init__(self):
        if self.mem_mb <= 0:
            raise InvalidValue("mem_mb", "must be > 0")
        if self.cpus <= 0:
            raise InvalidValue("cpus", "must be > 0")
        if self.gpus < 0:
            raise InvalidValue("gpus", "must be >= 0")
        if self.time_limit_min <= 0:
            raise InvalidValue("time_limit_min", "must be > 0")


@dataclass(frozen=True)
class ClusterProfile:
    host: str
    user: str
    key_path: str
    scratch_dir: str
    port: int = 22
    zarr_to_tiff: str = None  # the converter's image reference, if configured


@dataclass(frozen=True)
class WorkflowEntry:
    name: str
    repo_url: str
    version: str
    resources: ResourceSpec
    image_override: str = None
    descriptor_path: str = None  # as written; a relative path is from the config file


@dataclass(frozen=True)
class WorkflowRegistry:
    entries: dict  # name -> WorkflowEntry
    namespace: str = "local"

    def entry(self, name):
        if name not in self.entries:
            raise UnknownWorkflow(name)
        return self.entries[name]


def _int_value(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise InvalidValue(f"{section}.{key}", f"expected an integer, got {raw!r}")


def parse_config(text):
    """Parse the INI document into (ClusterProfile, WorkflowRegistry)."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if exc.errors else None
        raise MalformedConfig(str(exc), lineno=lineno) from exc
    except configparser.Error as exc:
        raise MalformedConfig(str(exc)) from exc

    for required in ("ssh", "cluster"):
        if required not in parser:
            raise MissingSection(required)

    ssh = parser["ssh"]
    host = ssh.get("host", "")
    user = ssh.get("user", "")
    if not host:
        raise InvalidValue("ssh.host", "must be non-empty")
    if not user:
        raise InvalidValue("ssh.user", "must be non-empty")
    port = _int_value("ssh", "port", ssh.get("port", "22"))

    cluster = parser["cluster"]
    scratch_dir = cluster.get("scratch_dir", "")
    if not posixpath.isabs(scratch_dir):
        raise InvalidValue("cluster.scratch_dir", "must be an absolute remote path")

    # ZARR -> TIFF is the one conversion; any other key is refused here,
    # where a typo shows, rather than when a run needs the converter.
    converters = dict(parser["converters"]) if "converters" in parser else {}
    for key, image in converters.items():
        if key != "zarr_to_tiff":
            raise InvalidValue(f"converters.{key}", "the only converter is zarr_to_tiff")
        if not image:
            raise InvalidValue(f"converters.{key}", "image reference must be non-empty")

    profile = ClusterProfile(
        host=host,
        user=user,
        key_path=ssh.get("key_path", ""),
        scratch_dir=scratch_dir.rstrip("/") or "/",
        port=port,
        zarr_to_tiff=converters.get("zarr_to_tiff"),
    )

    defaults = dict(_FALLBACK_RESOURCES)
    if "defaults" in parser:
        for key in _FALLBACK_RESOURCES:
            if key in parser["defaults"]:
                defaults[key] = _int_value("defaults", key, parser["defaults"][key])

    entries = {}
    for section in parser.sections():
        if not section.startswith("workflow."):
            continue
        name = section[len("workflow."):]
        wf = parser[section]
        repo_url = wf.get("repo_url", "")
        if "://" not in repo_url:
            raise InvalidValue(f"{section}.repo_url", "must be a URL")
        version = wf.get("version", "")
        if not version:
            raise InvalidValue(f"{section}.version", "must be non-empty")
        merged = dict(defaults)
        for key in _FALLBACK_RESOURCES:
            if key in wf:
                merged[key] = _int_value(section, key, wf[key])
        entries[name] = WorkflowEntry(
            name=name,
            repo_url=repo_url,
            version=version,
            resources=ResourceSpec(**merged),
            image_override=wf.get("image") or None,
            descriptor_path=wf.get("descriptor_path") or None,
        )

    namespace = "local"
    if "registry" in parser:
        namespace = parser["registry"].get("namespace", namespace)

    return profile, WorkflowRegistry(entries=entries, namespace=namespace)


def repo_basename(repo_url):
    base = repo_url.rstrip("/").rsplit("/", 1)[-1]
    if base.endswith(".git"):
        base = base[: -len(".git")]
    return base


def image_reference(registry, name):
    """The workflow's container image reference: its image key, or one
    derived from its repo entry."""
    entry = registry.entry(name)
    if entry.image_override:
        return entry.image_override
    return f"{registry.namespace}/{repo_basename(entry.repo_url).lower()}:{entry.version}"
