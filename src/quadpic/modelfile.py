"""The two JSON file formats: model files (_SCHEMA) and --decomps tables
(DECOMPOSITION_SHAPE).

model_sections is the JSON half of fields.declared_lattice_from_data, and
decomposition_entries that of decomp.declare_decompositions; both name a
misfit by its path (check_json) and refuse nesting past MAX_NESTING.
lattice_to_data snapshots a lattice of either backend through its public
methods, serialize_model writes the file text and parse_model reads it.
Nothing here builds a lattice, so the module sits below fields.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import ModelError

# the JSON shape of each model section, as check_json reads it
_SCHEMA = {
    "forms": [(("id", str, True), ("dim", int, True), ("prime", str, False))],
    "extensions": [(("id", str, True), ("construction", str, True), ("parent", str, False))],
    "witt": [(("form", str, True), ("extension", str, True), ("index", int, True))],
}

# the JSON shape of a decomposition, as decomposition_entries reads it
_SUMMAND_SHAPE = (("class", (("quadric", str, True), ("planes", int, True)), True),
                  ("shift", int, True), ("kind", str, True))
DECOMPOSITION_SHAPE = (("tates", [(("x", int, True), ("y", int, True))], False),
                       ("summands", [_SUMMAND_SHAPE], False))

# JSON arrays and objects nested deeper than this are refused on every Python
# version.  Each parser stops at its own depth (about 1,000 levels on 3.10 and
# 3.11, 1,500 on 3.12, 10,000 on 3.13), so the loaders walk, with
# check_nesting, each model that they refuse or that has a key outside the
# schema, and each entry alone that has a key outside its shape
MAX_NESTING = 500
_TOO_DEEP = "JSON nests deeper than the parser allows"


def check_json(value, path: str, shape):
    """value, checked against shape; an error names the path of the first offending value.

    An object shape is a tuple of (key, field, required) triples, where a
    field is str, int, an object shape or [object shape] for a list of
    objects; shape itself is an object shape or a list of one.  A null field
    counts as absent.  A list of objects is checked in one pass over its
    entries, with a recursive call only for a nested object or list field.
    """
    problem = _misfit(value, shape)
    if problem is not None:
        suffix, complaint = problem
        raise ModelError(f"{path}{suffix} {complaint}")
    return value


def _misfit(value, shape) -> tuple[str, str] | None:
    """(path suffix, complaint) for the first value that does not fit shape, or None."""
    if isinstance(shape, tuple):
        problem = _entries_misfit((value,), shape)
        return None if problem is None else problem[1:]
    if not isinstance(value, list):
        return "", "must be a list"
    problem = _entries_misfit(value, shape[0])
    return None if problem is None else (f"[{problem[0]}]{problem[1]}", problem[2])


def _entries_misfit(entries, fields) -> tuple[int, str, str] | None:
    """(index, path suffix, complaint) for the first entry that does not fit
    the object shape fields, or None; an entry that may hold a key outside
    fields, whose value nothing reads, goes through check_nesting."""
    for i, entry in enumerate(entries):
        if type(entry) is not dict and not isinstance(entry, dict):
            return i, "", "must be an object"
        extra = len(entry) - len(fields)  # plus each absent optional field below
        for key, field, required in fields:
            item = entry.get(key)
            if type(item) is field:
                continue
            if item is None:
                if not required:
                    extra += 1
                    continue
                return i, f".{key}", "missing"
            if field is str or field is int:
                if isinstance(item, field) and not isinstance(item, bool):
                    continue
                return i, f".{key}", "must be a string" if field is str else "must be an integer"
            problem = _misfit(item, field)
            if problem is not None:
                return i, f".{key}{problem[0]}", problem[1]
        if extra > 0:
            check_nesting(entry)
    return None


def check_nesting(value) -> None:
    """Refuse a JSON value whose arrays and objects nest more than MAX_NESTING deep."""
    level = [value]  # the values at one depth
    for _ in range(MAX_NESTING):
        level = [item for node in level if isinstance(node, (dict, list))
                 for item in (node.values() if isinstance(node, dict) else node)]
        if not level:
            return
    if any(isinstance(node, (dict, list)) for node in level):
        raise ModelError(_TOO_DEEP)


def model_sections(data) -> tuple[list, list, dict[str, dict[str, int]], str | None]:
    """(forms, extensions, rows, witt error) of parsed model data.

    forms and extensions are those sections, checked against the schema;
    rows is the witt section read in one pass, {token: {form id: index}},
    and the witt error the message of its first entry that names an unknown
    form or extension or holds a negative or duplicate index (None if none
    does).  A misfit is raised first in forms, then extensions, then witt,
    where check_json reads the whole section at the first entry that is not
    of the common exact shape or is bad.  Data that is not an object, has a
    key outside the schema or misfits is also walked by check_nesting.
    """
    if not isinstance(data, dict):
        check_nesting(data)
        raise ModelError(f"model must be a JSON object, not {type(data).__name__}")
    if not data.keys() <= _SCHEMA.keys():
        check_nesting(data)  # a key outside the schema may hold any value
    try:
        forms, extensions = (
            check_json(data.get(name, []), name, _SCHEMA[name]) for name in ("forms", "extensions")
        )
        form_ids = {item["id"] for item in forms}
        rows: dict[str, dict[str, int]] = {item["id"]: {} for item in extensions}
        witt = data.get("witt", [])
        checked = False  # whether check_json has passed the whole section
        if not isinstance(witt, list):
            check_json(witt, "witt", _SCHEMA["witt"])  # refuses it
        error = None
        for entry in witt:
            if not (type(entry) is dict and len(entry) == 3
                    and type(form := entry.get("form")) is str
                    and type(token := entry.get("extension")) is str
                    and type(index := entry.get("index")) is int):
                if not checked:
                    check_json(witt, "witt", _SCHEMA["witt"])
                    checked = True
                form, token, index = entry["form"], entry["extension"], entry["index"]
            if form not in form_ids:
                error = f"witt entry for unknown form {form!r}"
            elif (row := rows.get(token)) is None:
                error = f"unknown extension {token!r}"
            elif index < 0:
                error = f"negative Witt index for {form} at {token}"
            elif form in row:
                error = f"duplicate witt entry for {form} at {token}"
            else:
                row[form] = index
                continue
            if not checked:  # a later entry may still misfit
                check_json(witt, "witt", _SCHEMA["witt"])
            break
    except ModelError:
        check_nesting(data)  # a misfit may sit beside deeper nesting elsewhere
        raise
    return forms, extensions, rows, error


def lattice_to_data(model) -> dict:
    """Canonical plain-data snapshot of a lattice's declared content.

    Works for both backends; real lattices export their computed table,
    which is how valid declared fixtures are produced.
    """
    qs = list(map(model.form, model.form_keys()))
    forms = []
    for q in qs:
        entry = {"id": q.key, "dim": q.dim}
        q_prime = model.registered_prime(q)
        if q_prime is not None:
            entry["prime"] = q_prime.key
        forms.append(entry)
    tokens = model.extension_tokens()
    extensions = []
    for token in tokens:
        ext = model.extension(token)
        entry = {"id": token, "construction": ext.construction}
        if ext.parent is not None:
            entry["parent"] = ext.parent
        extensions.append(entry)
    # one Witt row per oracle group, read at the group's first token and
    # written out for every token of the group
    first_of = {tok: group[0] for group in model.token_groups() for tok in group}
    firsts = [tok for tok in tokens if first_of[tok] == tok]
    witt = []
    for q in qs:
        row = {first: model.witt_index(q, first) for first in firsts}
        witt.extend({"form": q.key, "extension": t, "index": row[first_of[t]]} for t in tokens)
    return {"forms": forms, "extensions": extensions, "witt": witt}


# A model section, a list of non-empty flat objects, is encoded by the C
# encoder in one call, and the joins "},\n      {" between its entries are
# rewritten into the indented layout.  No encoded string holds a raw newline,
# so that sequence occurs nowhere else.
_SECTION_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


def _model_shaped(data) -> bool:
    """Whether data is a non-empty object of non-empty lists of non-empty
    objects whose values are all leaves."""
    return type(data) is dict and bool(data) and all(
        type(key) is str and type(section) is list and bool(section)
        and set(map(type, section)) <= {dict} and all(section)
        and set(map(type, chain.from_iterable(map(dict.values, section)))) <= _LEAF_TYPES
        for key, section in data.items()
    )


def serialize_model(data: dict) -> str:
    """The model file text of data: json.dumps(data, sort_keys=True, indent=2)
    plus a newline, byte for byte, for every input; model-shaped data (see
    _model_shaped) is encoded one section at a time by the C encoder."""
    if not _model_shaped(data):
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    encode = _SECTION_ENCODER.encode
    sections = (
        f"  {encode(key)}: [\n    {{\n      "
        + encode(data[key])[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        + "\n    }\n  ]"
        for key in sorted(data)
    )
    return "{\n" + ",\n".join(sections) + "\n}\n"


def parse_model(text: str):
    """The JSON value of a model or --decomps file; JSON nested past the
    parser's recursion limit is a ModelError, as any other malformed input
    is (the loaders refuse shallower nesting past MAX_NESTING)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ModelError(_TOO_DEEP) from None


def decomposition_entries(table):
    """(form id, entry) for each entry of a --decomps table, in sorted id
    order, each entry checked against DECOMPOSITION_SHAPE when it is reached
    (a misfit names its path, decomps["<form id>"]...); the nesting bound and
    that the table is a JSON object are checked first."""
    check_nesting(table)
    if not isinstance(table, dict):
        raise ModelError(f"decomps must be a JSON object, not {type(table).__name__}")
    for form_id in sorted(table):
        yield form_id, check_json(
            table[form_id], f"decomps[{json.dumps(form_id)}]", DECOMPOSITION_SHAPE)
