"""The CLI's schema check against jsonschema, the reference it replaces.

``cli._validate`` interprets the few Draft 2020-12 keywords the shipped
schemas use.  Here it must accept exactly what ``jsonschema`` accepts (with
"integer" meaning a Python int) and give ``best_match``'s message.
"""

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from jsonschema.validators import extend

from hnbounds import cli
from hnbounds.cli import ConfigError

SCHEMAS = {
    "config": cli.CONFIG_SCHEMA,
    **{f"parameters.{suite}": schema for suite, schema in sorted(cli.PARAMETER_SCHEMAS.items())},
    "hn": cli._HN_SCHEMA,
    "tower": cli.TOWER_SCHEMA,
    "gram": cli.GRAM_SCHEMA,
    "ell": cli.ELL_SCHEMA,
}

SUPPORTED = {
    "type", "enum", "required", "properties", "additionalProperties",
    "minimum", "maximum", "items", "prefixItems", "minItems", "maxItems", "anyOf",
}

Reference = extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, x: type(x) is int),
)

# values of the wrong type for most fields: a float or a bool in an integer
# field, strings that are and are not rationals, empty and small containers
JUNK = st.sampled_from(
    [None, True, False, 0, 1, -1, 2.0, 1.5, -0.0, "", "1/2", "x", [], [1], ["1"], {}, {"lo": "1"}]
)


def _typed(kind, schema):
    """Values of JSON type ``kind``, mostly within ``schema``'s bounds."""
    if kind == "integer":
        lo = schema.get("minimum", -3)
        hi = schema.get("maximum", lo + 12)
        # out-of-range integers, and 2.0 or True where an int belongs
        misses = st.sampled_from([lo - 1, hi + 1, float(lo), float(hi), True, False, 10**30])
        return st.one_of(st.integers(lo, hi), st.integers(lo, hi), misses)
    if kind == "number":
        return st.integers(-3, 3) | st.floats(-1e3, 1e3)
    if kind == "string":
        return st.sampled_from(["0", "1", "-3/4", "1e5", "2.5", "x", ""])
    if kind == "object":
        props = schema.get("properties", {})
        required = schema.get("required", [])
        present = st.fixed_dictionaries(
            {key: near(props[key]) for key in required},
            optional={key: near(sub) for key, sub in props.items() if key not in required},
        )
        # now and then an extra key, or a required key missing
        changes = st.sampled_from([None] * 4 + ["extra", *required])

        def changed(t):
            value, change, junk = t
            if change == "extra":
                return {**value, "extra": junk}
            return {k: v for k, v in value.items() if k != change}

        return st.tuples(present, changes, JUNK).map(changed)
    if kind == "array":
        if "prefixItems" in schema:
            n = len(schema["prefixItems"])
            full = st.tuples(*(near(sub) for sub in schema["prefixItems"]), JUNK)
            # mostly full lists, some short ones, some one item too long
            size = st.sampled_from([n] * 4 + [*range(n), n + 1])
            return st.tuples(full, size).map(lambda t: list(t[0][: t[1]]))
        lo = schema.get("minItems", 0)
        hi = schema.get("maxItems", lo + 3)
        return st.lists(near(schema.get("items", {})), min_size=max(lo - 1, 0), max_size=hi + 1)
    raise AssertionError(kind)


def near(schema):
    """Values that match ``schema`` and values that narrowly miss it."""
    options = [near(branch) for branch in schema.get("anyOf", ())]
    if "enum" in schema:
        options.append(st.sampled_from(schema["enum"]))
    kinds = schema.get("type", [])
    options += [_typed(kind, schema) for kind in ([kinds] if isinstance(kinds, str) else kinds)]
    # a junk value at about one node in five, so that whole valid values are common too
    return st.one_of(options * 4 + [JUNK]) if options else JUNK


CASES = st.one_of([st.tuples(st.just(name), near(schema)) for name, schema in SCHEMAS.items()])


def _messages(errors):
    for error in errors:
        yield error.message
        yield from _messages(error.context)


@settings(deadline=None, derandomize=True, max_examples=800)
@given(CASES)
# an anyOf whose branches' errors tie, and one that descends to a branch's error
@example(("hn", [[1, None]]))
@example(("hn", [[1, {"lo": 1.5}]]))
def test_validator_agrees_with_jsonschema(case):
    name, value = case
    schema = SCHEMAS[name]
    errors = list(Reference(schema).iter_errors(value))
    try:
        assert cli._validate(value, schema, "x") is value
        message = None
    except ConfigError as exc:
        message = str(exc).removeprefix("invalid x: ")
    assert (message is None) == (not errors), (name, value, message)
    if len(errors) == 1:
        assert message == best_match(errors).message
    elif errors:
        # several errors: best_match's choice among them is a heuristic that
        # may change between jsonschema versions
        assert message in set(_messages(errors))


@pytest.mark.parametrize("name", SCHEMAS)
def test_shipped_schemas_are_valid_json_schemas(name):
    Draft202012Validator.check_schema(SCHEMAS[name])


def _keywords(schema):
    """(keyword, argument) pairs of ``schema`` and of every subschema."""
    for keyword, arg in schema.items():
        yield keyword, arg
        if keyword == "properties":
            subschemas = arg.values()
        elif keyword == "items":
            subschemas = [arg]
        elif keyword in ("prefixItems", "anyOf"):
            subschemas = arg
        else:
            subschemas = []
        for sub in subschemas:
            yield from _keywords(sub)


@pytest.mark.parametrize("name", SCHEMAS)
def test_shipped_schemas_use_only_supported_keywords(name):
    used = list(_keywords(SCHEMAS[name]))
    assert {keyword for keyword, _ in used} <= SUPPORTED
    for keyword, arg in used:
        if keyword == "type":
            assert set([arg] if isinstance(arg, str) else arg) <= set(cli._TYPES)
        if keyword == "additionalProperties":
            assert arg is False


@pytest.mark.parametrize(
    "schema",
    [{"pattern": "^1"}, {"type": "object", "additionalProperties": True}, {"items": {"const": 1}}],
)
def test_unsupported_keywords_raise(schema):
    with pytest.raises(ValueError, match="unsupported schema keyword") as raised:
        cli._validate(["1"], schema, "x")
    assert type(raised.value) is ValueError
