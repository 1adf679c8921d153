"""Workflow descriptor parsing, validation, and parameter rendering.

Descriptors follow the cytomine-0.1 JSON layout: a name, a container image
reference, a command-line template with ``[PARAM_ID]`` placeholders, and a
typed parameter list.
"""

import json
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    InvalidDescriptor,
    MalformedDocument,
    MissingRequiredParam,
    SlurmBridgeError,
    TypeMismatch,
    UnknownParam,
    UnsupportedSchema,
)

SUPPORTED_SCHEMA = "cytomine-0.1"

_ID_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_PLACEHOLDER_RE = re.compile(r"\[([A-Z][A-Z0-9_]*)\]")


class ValueType(Enum):
    NUMBER = "Number"
    STRING = "String"
    BOOLEAN = "Boolean"


@dataclass(frozen=True)
class ParamSpec:
    id: str
    display_name: str
    description: str
    value_type: ValueType
    default: object = None
    cli_flag: str = ""
    optional: bool = False

    @property
    def env_name(self):
        return self.id.upper()


@dataclass
class WorkflowDescriptor:
    name: str
    schema_version: str
    container_image: str
    container_version: str
    command_line_template: str
    params: list
    # Top-level fields outside the known set, preserved opaquely.
    extra_fields: dict = field(default_factory=dict)
    # Inputs skipped during parse (non-parameter types), recorded as warnings.
    warnings: list = field(default_factory=list)

    def param(self, param_id):
        for spec in self.params:
            if spec.id == param_id:
                return spec
        raise UnknownParam(param_id)


_KNOWN_TOP_LEVEL = {"name", "schema-version", "container-image", "command-line", "inputs"}
_PARAM_TYPES = {t.value: t for t in ValueType}


def _check_typed(value, value_type):
    if value_type is ValueType.NUMBER:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if value_type is ValueType.STRING:
        return isinstance(value, str)
    return isinstance(value, bool)


def parse_descriptor(text):
    """Parse a descriptor document into a validated WorkflowDescriptor."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("descriptor root must be an object")

    schema = doc.get("schema-version")
    if schema != SUPPORTED_SCHEMA:
        raise UnsupportedSchema(schema)

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidDescriptor("name", "must be a non-empty string")

    image = doc.get("container-image")
    if not isinstance(image, dict) or not image.get("image"):
        raise InvalidDescriptor("container-image", "must be an object with an 'image' key")
    container_image = image["image"]
    container_version = image.get("version", "latest")

    template = doc.get("command-line")
    if not isinstance(template, str):
        raise InvalidDescriptor("command-line", "must be a string")

    raw_inputs = doc.get("inputs", [])
    if not isinstance(raw_inputs, list):
        raise InvalidDescriptor("inputs", "must be an array")

    params = []
    warnings = []
    seen_ids = set()
    for entry in raw_inputs:
        if not isinstance(entry, dict):
            raise InvalidDescriptor("inputs", "each input must be an object")
        param_id = entry.get("id")
        if not isinstance(param_id, str) or not param_id:
            raise InvalidDescriptor("inputs.id", "must be a non-empty string")
        type_token = entry.get("type")
        if type_token not in _PARAM_TYPES:
            # Image-domain and other non-parameter inputs are data-routing
            # concerns; record and skip rather than reject.
            warnings.append(
                f"ignored input {param_id!r} with non-parameter type {type_token!r}"
            )
            continue
        if not _ID_RE.match(param_id):
            raise InvalidDescriptor(
                f"inputs.{param_id}", "id must match [a-z][a-z0-9_]*"
            )
        if param_id in seen_ids:
            raise InvalidDescriptor(f"inputs.{param_id}", "duplicate parameter id")
        seen_ids.add(param_id)
        value_type = _PARAM_TYPES[type_token]
        default = entry.get("default-value")
        if default is not None and not _check_typed(default, value_type):
            raise InvalidDescriptor(
                f"inputs.{param_id}",
                f"default-value does not conform to type {type_token}",
            )
        params.append(
            ParamSpec(
                id=param_id,
                display_name=entry.get("name", param_id),
                description=entry.get("description", ""),
                value_type=value_type,
                default=default,
                cli_flag=entry.get("command-line-flag", f"--{param_id}"),
                optional=bool(entry.get("optional", False)),
            )
        )

    by_env = {p.env_name for p in params}
    if len(by_env) != len(params):
        raise InvalidDescriptor("inputs", "two parameter ids collide when uppercased")

    for placeholder in _PLACEHOLDER_RE.findall(template):
        if placeholder not in by_env:
            raise InvalidDescriptor(placeholder, "placeholder has no matching parameter")

    extra = {k: v for k, v in doc.items() if k not in _KNOWN_TOP_LEVEL}
    return WorkflowDescriptor(
        name=name,
        schema_version=schema,
        container_image=container_image,
        container_version=container_version,
        command_line_template=template,
        params=params,
        extra_fields=extra,
        warnings=warnings,
    )


def validate_values(descriptor, supplied):
    """Fill defaults and type-check a user-supplied parameter map. A String
    value, supplied or default, must hold no line break: a job script keeps
    each value on one line."""
    known = {p.id: p for p in descriptor.params}
    for key in supplied:
        if key not in known:
            raise UnknownParam(key)
    result = {}
    for spec in descriptor.params:
        if spec.id in supplied:
            value = supplied[spec.id]
            if not _check_typed(value, spec.value_type):
                raise TypeMismatch(spec.id, spec.value_type.value)
            result[spec.id] = value
        elif spec.default is not None:
            result[spec.id] = spec.default
        elif not spec.optional:
            raise MissingRequiredParam(spec.id)
        value = result.get(spec.id)
        if isinstance(value, str) and ("\n" in value or "\r" in value):
            raise SlurmBridgeError(
                f"parameter {spec.id!r} holds a line break, which a job script cannot carry")
    return result


def render_value(value):
    """Render a typed parameter value as a single command token.

    Numbers use the shortest decimal form that round-trips; booleans render
    "true"/"false" (only used on the environment side).
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_cli_args(descriptor, values):
    """Expand the command-line template into an argv-style token list."""
    by_env = {p.env_name: p for p in descriptor.params}
    tokens = []
    for raw in descriptor.command_line_template.split():
        match = _PLACEHOLDER_RE.fullmatch(raw)
        if match is None:
            tokens.append(raw)
            continue
        spec = by_env[match.group(1)]
        if spec.id not in values:
            continue
        value = values[spec.id]
        if spec.value_type is ValueType.BOOLEAN:
            if value:
                tokens.append(spec.cli_flag)
        else:
            tokens.append(spec.cli_flag)
            tokens.append(render_value(value))
    return tokens


def env_assignments(descriptor, values):
    """One (NAME, value) pair per supplied param, in descriptor order."""
    pairs = []
    for spec in descriptor.params:
        if spec.id in values:
            pairs.append((spec.env_name, render_value(values[spec.id])))
    return pairs

