"""Machine-readable result schemas and a dependency-free validator.

The container has no ``jsonschema`` package, so this module implements
the small subset of JSON Schema the manifests need — ``type``,
``required``, ``properties``, ``items``, ``enum``, ``minimum``,
``additionalProperties: false`` — as a recursive checker that reports
*every* violation with its JSON path.  CI uses it (via ``python -m
repro.obs validate``) to gate the artifacts benchmarks upload.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Schema of the ``manifest`` object embedded in every result document.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["run", "package", "format", "version", "rng_seed",
                 "config", "python", "platform", "started_at"],
    "properties": {
        "run": {"type": "string"},
        "package": {"type": "string", "enum": ["repro"]},
        "format": {"type": "integer", "minimum": 1},
        "version": {"type": "string"},
        "rng_seed": {"type": "integer"},
        "config": {"type": "object"},
        "python": {"type": "string"},
        "platform": {"type": "string"},
        "started_at": {"type": "string"},
        "duration_seconds": {"type": ["number", "null"]},
    },
    "additionalProperties": False,
}

#: The reproducible half of a manifest (see
#: :meth:`~repro.obs.manifest.RunManifest.deterministic_dict`): the
#: environment fields are *absent*, which is what lets two reruns of the
#: same campaign produce byte-identical artifacts.
DETERMINISTIC_MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["run", "package", "format", "version", "rng_seed",
                 "config"],
    "properties": {
        "run": {"type": "string"},
        "package": {"type": "string", "enum": ["repro"]},
        "format": {"type": "integer", "minimum": 1},
        "version": {"type": "string"},
        "rng_seed": {"type": "integer"},
        "config": {"type": "object"},
    },
    "additionalProperties": False,
}

#: Schema of one ``results/*.json`` document: manifest + data payload,
#: with an optional engine stats tree (scopes nest under "children").
STATS_SCHEMA: Dict[str, Any] = {
    "type": ["object", "null"],
    "required": ["name", "scalars", "blocks", "children"],
    "properties": {
        "name": {"type": "string"},
        "scalars": {"type": "object"},
        "blocks": {"type": "object"},
        "children": {"type": "array"},
    },
}

RUN_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["manifest", "data"],
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "data": {},
        "stats": STATS_SCHEMA,
        # Present only when the run was traced and the ring buffer
        # overflowed: how many events were lost, and the capacity that
        # lost them (so the reader can re-run with a bigger buffer).
        "trace": {
            "type": "object",
            "required": ["dropped", "capacity"],
            "properties": {
                "dropped": {"type": "integer", "minimum": 1},
                "capacity": {"type": "integer", "minimum": 1},
            },
        },
    },
}

#: Schema of a ``results/*.metrics.json`` time-series document.
METRICS_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["manifest", "metrics"],
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "metrics": {
            "type": "object",
            "required": ["interval", "segments"],
            "properties": {
                "interval": {"type": "integer", "minimum": 1},
                "root": {"type": "string"},
                "select": {"type": ["array", "null"],
                           "items": {"type": "string"}},
                "dropped": {"type": "integer", "minimum": 0},
                "segments": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["system", "samples"],
                        "properties": {
                            "system": {"type": "string"},
                            "samples": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["cycle", "epoch", "values"],
                                    "properties": {
                                        "cycle": {"type": "integer",
                                                  "minimum": 0},
                                        "epoch": {"type": "integer",
                                                  "minimum": 0},
                                        "values": {"type": "object"},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

#: One node of the cycle-accounting tree.  The schema references itself
#: for ``children`` — the validator recurses by document depth, so a
#: cyclic schema object terminates like any finite profile does.
PROFILE_NODE_SCHEMA: Dict[str, Any] = {
    "type": ["object", "null"],
    "required": ["name", "cycles", "total", "breakdown", "children"],
    "properties": {
        "name": {"type": "string"},
        "cycles": {"type": "number", "minimum": 0},
        "total": {"type": "number", "minimum": 0},
        "breakdown": {"type": "object"},
    },
}
PROFILE_NODE_SCHEMA["properties"]["children"] = {
    "type": "array", "items": PROFILE_NODE_SCHEMA}

#: Schema of a ``results/*.profile.json`` cycle-accounting document.
PROFILE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["manifest", "profile"],
    "properties": {
        "manifest": MANIFEST_SCHEMA,
        "systems": {"type": "integer", "minimum": 0},
        "profile": PROFILE_NODE_SCHEMA,
        "wall": {
            "type": ["object", "null"],
            "properties": {
                "sections": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "seconds", "calls"],
                        "properties": {
                            "name": {"type": "string"},
                            "seconds": {"type": "number", "minimum": 0},
                            "calls": {"type": "integer", "minimum": 0},
                        },
                    },
                },
            },
        },
    },
}


#: Outcome classes of one fault-campaign trial (mirrors
#: ``repro.robust.campaign.OUTCOMES``; duplicated here because obs is a
#: rank-1 layer and must not import the rank-3 robust package).
FAULT_OUTCOMES = ("masked", "corrected", "detected_recovered",
                  "silent_corruption", "crash")

#: Schema of a ``results/*.faults.json`` fault-campaign document.  The
#: manifest is the *deterministic* subset: same seed + same plan must
#: reproduce the file byte for byte.
FAULTS_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["kind", "name", "manifest", "plan", "parameters",
                 "sweep", "outcome_totals"],
    "properties": {
        "kind": {"type": "string", "enum": ["fault_campaign"]},
        "name": {"type": "string"},
        "manifest": DETERMINISTIC_MANIFEST_SCHEMA,
        "plan": {"type": "object"},
        "parameters": {"type": "object"},
        "sweep": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rate", "outcomes", "trials"],
                "properties": {
                    "rate": {"type": "number", "minimum": 0},
                    "outcomes": {"type": "object"},
                    "trials": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["outcome", "detections",
                                         "repairs", "faults"],
                            "properties": {
                                "outcome": {"type": "string",
                                            "enum": list(FAULT_OUTCOMES)},
                                "detections": {"type": "integer",
                                               "minimum": 0},
                                "repairs": {"type": "integer",
                                            "minimum": 0},
                                "recovery_cycles": {"type": "integer",
                                                    "minimum": 0},
                                "faults": {"type": "object"},
                                "violations": {"type": "array"},
                                "error": {"type": "string"},
                                "fault_seed": {"type": "integer"},
                            },
                        },
                    },
                },
            },
        },
        "outcome_totals": {"type": "object"},
    },
    "additionalProperties": False,
}


#: Schema of ``BENCH_perf.json``, the speed record: one entry per
#: ``benchmarks/bench_perf.py --record``, holding the result line and
#: seed of the median ``benchmarks/perf/run.py`` run of one workload at
#: one commit, and the seed and ``pass_cpu_s`` of every run.
BENCH_PERF_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "entries"],
    "properties": {
        "format": {"type": "integer", "enum": [2]},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["commit", "workload", "seed", "runs", "python",
                             "platform", "recorded_at", "result"],
                "properties": {
                    "commit": {"type": "string"},
                    "workload": {"type": "string"},
                    "seed": {"type": "integer"},
                    "runs": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["seed", "pass_cpu_s"],
                            "properties": {
                                "seed": {"type": "integer"},
                                "pass_cpu_s": {"type": "number",
                                               "minimum": 0},
                            },
                            "additionalProperties": False,
                        },
                    },
                    "python": {"type": "string"},
                    "platform": {"type": "string"},
                    "recorded_at": {"type": "string"},
                    "result": {
                        "type": "object",
                        "required": ["correct", "attempted", "failed",
                                     "metrics"],
                        "properties": {
                            "correct": {"type": "boolean"},
                            "attempted": {"type": "integer", "minimum": 0},
                            "failed": {"type": "integer", "minimum": 0},
                            "metrics": {"type": "object"},
                        },
                        "additionalProperties": False,
                    },
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


class SchemaError(ValueError):
    """Raised when a document does not match its schema."""


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, name: str) -> bool:
    expected = _TYPES[name]
    if isinstance(value, bool) and name in ("integer", "number"):
        return False
    return isinstance(value, expected)


def schema_errors(doc: Any, schema: Dict[str, Any],
                  path: str = "$") -> List[str]:
    """Every violation of *schema* in *doc*, as ``path: problem`` lines."""
    errors: List[str] = []
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(doc, name) for name in names):
            errors.append(f"{path}: expected {' or '.join(names)}, "
                          f"got {type(doc).__name__}")
            return errors
    if doc is None:
        return errors
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not in {schema['enum']!r}")
    if "minimum" in schema and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool) and doc < schema["minimum"]:
        errors.append(f"{path}: {doc!r} below minimum {schema['minimum']!r}")
    if isinstance(doc, dict):
        for key in schema.get("required", []):
            if key not in doc:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc and sub:
                errors.extend(schema_errors(doc[key], sub, f"{path}.{key}"))
        if schema.get("additionalProperties") is False:
            allowed = schema.get("properties", {})
            for key in sorted(set(doc) - set(allowed)):
                errors.append(f"{path}: unknown key {key!r}")
    if isinstance(doc, list) and "items" in schema:
        for index, item in enumerate(doc):
            errors.extend(schema_errors(item, schema["items"],
                                        f"{path}[{index}]"))
    return errors


def validate(doc: Any, schema: Dict[str, Any], label: str = "document") -> None:
    """Raise :class:`SchemaError` listing every violation, if any."""
    errors = schema_errors(doc, schema)
    if errors:
        raise SchemaError(f"{label} fails schema validation:\n  "
                          + "\n  ".join(errors))


def validate_manifest(doc: Dict[str, Any]) -> None:
    """Check a bare manifest object."""
    validate(doc, MANIFEST_SCHEMA, "manifest")


def validate_run(doc: Dict[str, Any]) -> None:
    """Check a full ``results/*.json`` document (manifest + data)."""
    validate(doc, RUN_SCHEMA, "run document")
