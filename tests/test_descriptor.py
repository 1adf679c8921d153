import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slurmbridge import descriptor as d
from slurmbridge.errors import (
    InvalidDescriptor,
    MalformedDocument,
    MissingRequiredParam,
    SlurmBridgeError,
    TypeMismatch,
    UnknownParam,
    UnsupportedSchema,
)
from tests.conftest import serialize_descriptor


def make_doc(**overrides):
    doc = {
        "name": "W_Test",
        "schema-version": "cytomine-0.1",
        "container-image": {"image": "demo/w_test", "version": "v1.0.0"},
        "command-line": "python wrapper.py",
        "inputs": [],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseDescriptor:
    def test_cellpose_single_number_param(self, cellpose_descriptor):
        assert cellpose_descriptor.name == "W_NucleiSegmentation-Cellpose"
        assert len(cellpose_descriptor.params) == 1
        spec = cellpose_descriptor.params[0]
        assert spec.id == "diameter"
        assert spec.value_type is d.ValueType.NUMBER
        assert spec.default == 30

    def test_empty_params_and_template(self):
        descriptor = d.parse_descriptor(make_doc())
        assert descriptor.params == []

    def test_dangling_placeholder_names_it(self):
        doc = make_doc(**{"command-line": "run [RADIUS]"})
        with pytest.raises(InvalidDescriptor) as info:
            d.parse_descriptor(doc)
        assert info.value.field == "RADIUS"

    def test_malformed_json(self):
        with pytest.raises(MalformedDocument):
            d.parse_descriptor("{not json")

    def test_unsupported_schema(self):
        with pytest.raises(UnsupportedSchema) as info:
            d.parse_descriptor(make_doc(**{"schema-version": "boutiques"}))
        assert info.value.schema_version == "boutiques"

    def test_duplicate_param_ids(self):
        inputs = [
            {"id": "x", "type": "Number", "command-line-flag": "--x"},
            {"id": "x", "type": "String", "command-line-flag": "--x2"},
        ]
        with pytest.raises(InvalidDescriptor):
            d.parse_descriptor(make_doc(inputs=inputs))

    def test_type_mismatched_default(self):
        inputs = [{"id": "x", "type": "Number", "default-value": "ten",
                   "command-line-flag": "--x"}]
        with pytest.raises(InvalidDescriptor):
            d.parse_descriptor(make_doc(inputs=inputs))

    def test_non_parameter_inputs_skipped_with_warning(self):
        inputs = [
            {"id": "image", "type": "Domain", "uri": "/api/images"},
            {"id": "x", "type": "Number", "command-line-flag": "--x",
             "default-value": 1},
        ]
        descriptor = d.parse_descriptor(make_doc(inputs=inputs))
        assert [p.id for p in descriptor.params] == ["x"]
        assert any("image" in w for w in descriptor.warnings)

    def test_unknown_top_level_fields_preserved(self):
        doc = make_doc(**{"custom-field": {"a": 1}})
        descriptor = d.parse_descriptor(doc)
        assert descriptor.extra_fields == {"custom-field": {"a": 1}}
        again = d.parse_descriptor(serialize_descriptor(descriptor))
        assert again.extra_fields == {"custom-field": {"a": 1}}

    def test_order_preserved(self):
        inputs = [
            {"id": "c", "type": "Number", "command-line-flag": "--c", "default-value": 1},
            {"id": "a", "type": "Number", "command-line-flag": "--a", "default-value": 2},
            {"id": "b", "type": "Number", "command-line-flag": "--b", "default-value": 3},
        ]
        descriptor = d.parse_descriptor(make_doc(inputs=inputs))
        assert [p.id for p in descriptor.params] == ["c", "a", "b"]


class TestValidateValues:
    def _descriptor(self, inputs, template="run"):
        return d.parse_descriptor(make_doc(inputs=inputs, **{"command-line": template}))

    def test_default_filled(self):
        descriptor = self._descriptor(
            [{"id": "diameter", "type": "Number", "default-value": 30,
              "command-line-flag": "--diameter"}]
        )
        assert d.validate_values(descriptor, {}) == {"diameter": 30}

    def test_missing_required(self):
        descriptor = self._descriptor(
            [{"id": "threshold", "type": "Number", "command-line-flag": "--t"}]
        )
        with pytest.raises(MissingRequiredParam) as info:
            d.validate_values(descriptor, {})
        assert info.value.param_id == "threshold"

    def test_defaulting_mixed(self):
        # Oracle: hand-applied defaulting per param.
        descriptor = self._descriptor(
            [
                {"id": "a", "type": "Number", "default-value": 1, "command-line-flag": "--a"},
                {"id": "b", "type": "Boolean", "default-value": False, "command-line-flag": "--b"},
            ]
        )
        assert d.validate_values(descriptor, {"b": True}) == {"a": 1, "b": True}

    def test_type_mismatch(self):
        descriptor = self._descriptor(
            [{"id": "a", "type": "Number", "command-line-flag": "--a"}]
        )
        with pytest.raises(TypeMismatch):
            d.validate_values(descriptor, {"a": "many"})

    def test_unknown_param(self):
        descriptor = self._descriptor([])
        with pytest.raises(UnknownParam):
            d.validate_values(descriptor, {"nope": 1})

    def test_bool_is_not_a_number(self):
        descriptor = self._descriptor(
            [{"id": "a", "type": "Number", "command-line-flag": "--a"}]
        )
        with pytest.raises(TypeMismatch):
            d.validate_values(descriptor, {"a": True})


class TestRenderCliArgs:
    def test_direct_substitution(self):
        descriptor = d.parse_descriptor(make_doc(
            inputs=[{"id": "diameter", "type": "Number", "default-value": 30,
                     "command-line-flag": "--diameter"}],
            **{"command-line": "run [DIAMETER]"},
        ))
        values = d.validate_values(descriptor, {})
        assert d.render_cli_args(descriptor, values) == ["run", "--diameter", "30"]

    def test_boolean_false_omitted(self):
        descriptor = d.parse_descriptor(make_doc(
            inputs=[{"id": "use_gpu", "type": "Boolean", "default-value": False,
                     "command-line-flag": "--gpu"}],
            **{"command-line": "run [USE_GPU]"},
        ))
        values = d.validate_values(descriptor, {})
        assert d.render_cli_args(descriptor, values) == ["run"]
        values = d.validate_values(descriptor, {"use_gpu": True})
        assert d.render_cli_args(descriptor, values) == ["run", "--gpu"]

    def test_two_placeholders(self):
        # Oracle: manual template substitution.
        descriptor = d.parse_descriptor(make_doc(
            inputs=[
                {"id": "diameter", "type": "Number", "command-line-flag": "--diameter"},
                {"id": "prob", "type": "Number", "command-line-flag": "--prob_threshold"},
            ],
            **{"command-line": "seg [DIAMETER] [PROB]"},
        ))
        values = d.validate_values(descriptor, {"diameter": 17, "prob": 0.5})
        assert d.render_cli_args(descriptor, values) == [
            "seg", "--diameter", "17", "--prob_threshold", "0.5",
        ]


class TestEnvAssignments:
    def test_single(self):
        descriptor = d.parse_descriptor(make_doc(
            inputs=[{"id": "diameter", "type": "Number", "default-value": 30,
                     "command-line-flag": "--diameter"}],
        ))
        assert d.env_assignments(descriptor, {"diameter": 30}) == [("DIAMETER", "30")]

    def test_empty(self):
        descriptor = d.parse_descriptor(make_doc())
        assert d.env_assignments(descriptor, {}) == []

    def test_order_follows_descriptor(self):
        # Oracle: hand-applied naming + ordering rule.
        descriptor = d.parse_descriptor(make_doc(
            inputs=[
                {"id": "diameter", "type": "Number", "command-line-flag": "--d"},
                {"id": "use_gpu", "type": "Boolean", "command-line-flag": "--g"},
            ],
        ))
        pairs = d.env_assignments(descriptor, {"use_gpu": True, "diameter": 17})
        assert pairs == [("DIAMETER", "17"), ("USE_GPU", "true")]


# --- property tests ---------------------------------------------------------

_ids = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def descriptors(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    ids = draw(st.lists(_ids, min_size=n, max_size=n, unique=True))
    inputs = []
    for param_id in ids:
        value_type = draw(st.sampled_from(["Number", "String", "Boolean"]))
        entry = {
            "id": param_id,
            "name": param_id.title(),
            "description": draw(st.text(alphabet=st.characters(codec="ascii",
                                                               exclude_characters="\x00"),
                                         max_size=20)),
            "type": value_type,
            "command-line-flag": f"--{param_id}",
            "optional": draw(st.booleans()),
        }
        if draw(st.booleans()):
            if value_type == "Number":
                entry["default-value"] = draw(
                    st.one_of(st.integers(-1000, 1000),
                              st.floats(allow_nan=False, allow_infinity=False,
                                        width=32))
                )
            elif value_type == "String":
                entry["default-value"] = draw(st.text(max_size=10))
            else:
                entry["default-value"] = draw(st.booleans())
        inputs.append(entry)
    referenced = [p for p in ids if draw(st.booleans())]
    template = " ".join(["run"] + [f"[{p.upper()}]" for p in referenced])
    doc = {
        "name": "W_Generated",
        "schema-version": "cytomine-0.1",
        "container-image": {"image": "demo/w_generated", "version": "v1"},
        "command-line": template,
        "inputs": inputs,
    }
    return d.parse_descriptor(json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(descriptors())
def test_serialize_parse_round_trip(descriptor):
    again = d.parse_descriptor(serialize_descriptor(descriptor))
    assert again == descriptor


@st.composite
def descriptors_with_values(draw):
    descriptor = draw(descriptors())
    supplied = {}
    for spec in descriptor.params:
        if draw(st.booleans()):
            if spec.value_type is d.ValueType.NUMBER:
                supplied[spec.id] = draw(st.integers(-100, 100))
            elif spec.value_type is d.ValueType.STRING:
                supplied[spec.id] = draw(st.text(
                    alphabet=st.characters(codec="ascii", exclude_characters=" \t\n\x00"),
                    max_size=8))
            else:
                supplied[spec.id] = draw(st.booleans())
        elif spec.default is None and not spec.optional:
            supplied[spec.id] = {"Number": 0, "String": "v", "Boolean": False}[
                spec.value_type.value
            ]
    return descriptor, supplied


def validated(descriptor, supplied):
    """validate_values(descriptor, supplied), or None once it has refused,
    as it must, the first String value, supplied or default, that holds a
    line break."""
    effective = {spec.id: spec.default for spec in descriptor.params} | supplied
    broken = [spec.id for spec in descriptor.params if spec.value_type is d.ValueType.STRING
              and isinstance(effective[spec.id], str) and {"\n", "\r"} & set(effective[spec.id])]
    if broken:
        with pytest.raises(SlurmBridgeError, match=f"parameter {broken[0]!r} holds a line break"):
            d.validate_values(descriptor, supplied)
        return None
    return d.validate_values(descriptor, supplied)


@settings(max_examples=200, deadline=None)
@given(descriptors_with_values())
def test_token_provenance(pair):
    descriptor, supplied = pair
    values = validated(descriptor, supplied)
    if values is None:
        return
    template_tokens = set(descriptor.command_line_template.split())
    flags = {p.cli_flag for p in descriptor.params}
    rendered = {d.render_value(v) for v in values.values()}
    for token in d.render_cli_args(descriptor, values):
        assert token in template_tokens or token in flags or token in rendered


@settings(max_examples=200, deadline=None)
@given(descriptors_with_values())
def test_validate_values_idempotent(pair):
    descriptor, supplied = pair
    once = validated(descriptor, supplied)
    if once is None:
        return
    assert d.validate_values(descriptor, once) == once


@settings(max_examples=200, deadline=None)
@given(descriptors_with_values())
def test_env_and_cli_rendering_agree(pair):
    descriptor, supplied = pair
    values = validated(descriptor, supplied)
    if values is None:
        return
    env = dict(d.env_assignments(descriptor, values))
    args = d.render_cli_args(descriptor, values)
    for spec in descriptor.params:
        if spec.id not in values or spec.value_type is d.ValueType.BOOLEAN:
            continue
        if spec.cli_flag in args:
            rendered = args[args.index(spec.cli_flag) + 1]
            assert rendered == env[spec.env_name]
