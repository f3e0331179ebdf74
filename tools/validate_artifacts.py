#!/usr/bin/env python3
"""Validate observability artifacts against the checked-in JSON schemas.

Pure-stdlib validator for the JSON-Schema subset the schemas/ directory
uses: type, properties, required, items, enum, minItems, minimum, maximum,
if/then/else and $ref into the document-local #/$defs table. Deliberately
not a full Draft 2020-12 implementation — CI must not need pip.

The report schemas use if/then/else for the one cross-field rule they pin:
config.radius_pass is true exactly when workload.level is Level 1.

Usage:
    validate_artifacts.py <schema.json> <artifact.json> [<artifact.json>...]
    validate_artifacts.py --syntax <artifact.json> [...]   # JSON load only

Exit code 0 when every artifact validates; 1 on the first failure, with a
JSON-pointer-style path to the offending node.
"""

import json
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


class ValidationError(Exception):
    def __init__(self, path, message):
        super().__init__(f"{path or '/'}: {message}")


def _resolve(schema, root):
    ref = schema.get("$ref")
    if ref is None:
        return schema
    if not ref.startswith("#/"):
        raise ValidationError("", f"unsupported $ref {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _passes(value, schema, root):
    try:
        _check(value, schema, root, "")
    except ValidationError:
        return False
    return True


def _check(value, schema, root, path):
    schema = _resolve(schema, root)

    if "if" in schema:
        branch = "then" if _passes(value, schema["if"], root) else "else"
        if branch in schema:
            _check(value, schema[branch], root, path)

    if "enum" in schema:
        if value not in schema["enum"]:
            raise ValidationError(path, f"{value!r} not in enum {schema['enum']}")
        return

    expected = schema.get("type")
    if expected is not None:
        py = _TYPES[expected]
        ok = isinstance(value, py)
        # bool is an int subclass in Python; don't let it pass for numbers.
        if ok and isinstance(value, bool) and expected in ("number", "integer"):
            ok = False
        if expected == "number" and isinstance(value, bool):
            ok = False
        if not ok:
            raise ValidationError(
                path, f"expected {expected}, got {type(value).__name__}")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise ValidationError(
                path, f"{value!r} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            raise ValidationError(
                path, f"{value!r} > maximum {schema['maximum']}")

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValidationError(path, f"missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, root, f"{path}/{key}")

    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ValidationError(
                path, f"{len(value)} items < minItems {schema['minItems']}")
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                _check(item, item_schema, root, f"{path}/{i}")


def validate(schema, artifact):
    _check(artifact, schema, schema, "")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    syntax_only = argv[1] == "--syntax"
    schema = None
    artifacts = argv[2:]
    if not syntax_only:
        with open(argv[1]) as f:
            schema = json.load(f)
    for artifact_path in artifacts:
        try:
            with open(artifact_path) as f:
                artifact = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"FAIL {artifact_path}: {err}", file=sys.stderr)
            return 1
        if schema is not None:
            try:
                validate(schema, artifact)
            except ValidationError as err:
                print(f"FAIL {artifact_path}: {err}", file=sys.stderr)
                return 1
        print(f"ok {artifact_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
