"""The checked-in CLI output corpus: every request gives its recorded output.

tests/cli_corpus/requests.jsonl holds one request per line: its argv and the
sha256 of (stdout, stderr, exit code), as `digest` computes it.  In an argv,
"{dir}" names a scratch directory that holds the model and --decomps files:
the valid models are built here from real lattices, while the damaged models
and the --decomps files are fixtures in tests/cli_corpus.  The directory is
written back as "{dir}" in the output before it is hashed.

After a deliberate output change, rewrite the digests with

    PYTHONPATH=src python tests/test_cli_corpus.py --update

and list each changed request, with its old and new output, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from quadpic import QuadraticForm, lattice_to_data, real_lattice, serialize_model
from quadpic.acceptance import real_forms
from quadpic.cli import main

CORPUS = Path(__file__).resolve().parent / "cli_corpus"
REQUESTS = CORPUS / "requests.jsonl"
DEEP = 1100

TWINS = {
    "forms": [
        {"id": "c1", "dim": 3, "prime": "c1p"}, {"id": "c1p", "dim": 4},
        {"id": "c2", "dim": 3, "prime": "c2p"}, {"id": "c2p", "dim": 4},
    ],
    "extensions": [
        {"id": "k", "construction": "base"},
        {"id": "k(c1)", "parent": "k", "construction": "ff:c1"},
        {"id": "k(c2)", "parent": "k", "construction": "ff:c2"},
        {"id": "k(c1,c2)", "parent": "k(c1)", "construction": "join:k(c1)|k(c2)"},
        {"id": "k(G)", "parent": "k", "construction": "gff:c1p:1"},
    ],
    # anisotropic at k, isotropic everywhere above it, and c1p split at k(G)
    "witt": [
        {"form": f, "extension": e, "index": 0 if e == "k" else 1 + (f == "c1p" and e == "k(G)")}
        for f in ("c1", "c1p", "c2", "c2p")
        for e in ("k", "k(c1)", "k(c2)", "k(c1,c2)", "k(G)")
    ],
}


def valid_models() -> dict:
    """The valid model files, by name: snapshots of real lattices and TWINS."""
    real = QuadraticForm.real
    return {
        "snap4": lattice_to_data(real_lattice(real_forms(4), depth=2)),
        "snap6": lattice_to_data(real_lattice(real_forms(6), depth=2)),
        "pair": lattice_to_data(real_lattice([real(3, 0), real(2, 1)], depth=2)),
        "twins": TWINS,
    }


def write_files(directory: Path) -> None:
    """Every model and --decomps file that the requests name, as <name>.json."""
    files = {name: serialize_model(data) for name, data in valid_models().items()}
    for fixture in ("models", "decomps"):
        stored = json.loads((CORPUS / f"{fixture}.json").read_text(encoding="utf-8"))
        files.update((name, json.dumps(data)) for name, data in stored.items())
    # nested past the JSON parser's recursion limit, so written as text
    files["deep-model"] = '{"forms": ' + "[" * DEEP + "]" * DEEP + "}"
    files["deep-decomps"] = '{"c1": ' + "[" * DEEP + "]" * DEEP + "}"
    for name, text in files.items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")


def run(argv: list, directory: Path) -> tuple:
    """(stdout, stderr, exit code) of one in-process request."""
    place = str(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{dir}", place) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return out.getvalue().replace(place, "{dir}"), err.getvalue().replace(place, "{dir}"), code


def digest(result: tuple) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode("utf-8")).hexdigest()


def load_requests() -> list:
    return [json.loads(line) for line in REQUESTS.read_text(encoding="utf-8").splitlines()]


def test_every_request_gives_its_recorded_output(tmp_path):
    write_files(tmp_path)
    requests = load_requests()
    changed = [r["argv"] for r in requests if digest(run(r["argv"], tmp_path)) != r["sha256"]]
    assert not changed, f"{len(changed)} of {len(requests)} requests changed: {changed[:5]}"


def _update() -> None:
    with tempfile.TemporaryDirectory() as place:
        directory = Path(place)
        write_files(directory)
        lines = [
            json.dumps({"argv": r["argv"], "sha256": digest(run(r["argv"], directory))})
            for r in load_requests()
        ]
    REQUESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_cli_corpus.py --update")
    _update()
