"""The command line's lattice answers over GF(p), by digest.

``lattice_outputs.json`` holds, for each document below, the sha256 of
the document and of the exit code and stdout of ``analyze --json`` and
of ``enumerate --what subalgebras|ideals|maximal|maxnilp|cartan`` on it,
with each report's ``seconds`` removed.  The documents are the fixed
algebras of the benchmark's lattice workload and three random solvable
algebras from its pools: nilpotent and non-nilpotent algebras, whose
lattice filters take different routes.  Re-record, only when an answer
is meant to change, with ``PYTHONPATH=src python tests/test_lattice_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from cideals import GF, builtin, random_solvable, serialize
from cideals.cli import main

GOLDEN = Path(__file__).parent / "lattice_outputs.json"
COMMANDS = {"analyze": ["analyze", "--json"]}
COMMANDS.update(
    (what, ["enumerate", "--what", what])
    for what in ("subalgebras", "ideals", "maximal", "maxnilp", "cartan")
)
_SECONDS = re.compile(r'"seconds": [-+.0-9eE]+, ')


def documents() -> dict:
    algebras = {
        "heisenberg(5)/GF(2)": builtin("heisenberg", GF(2), 5),
        "t(3)/GF(2)": builtin("t", GF(2), 3),
        "n(4)/GF(2)": builtin("n", GF(2), 4),
        "heisenberg(5)/GF(3)": builtin("heisenberg", GF(3), 5),
        "random_solvable(0, GF(2), 4, 2)": random_solvable(0, GF(2), 4, 2),
        "random_solvable(12, GF(2), 4, 3)": random_solvable(12, GF(2), 4, 3),
        "random_solvable(13, GF(3), 4, 2)": random_solvable(13, GF(3), 4, 2),
    }
    return {name: serialize(l) for name, l in algebras.items()}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return f"{code}\n{_SECONDS.sub('', out.getvalue())}"


def digests(document: str, directory: Path) -> dict:
    path = directory / "algebra.json"
    path.write_text(document, encoding="utf-8")
    out = {"document": _digest(document)}
    for key, args in COMMANDS.items():
        out[key] = _digest(run_cli([args[0], str(path)] + args[1:]))
    return out


_RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_the_recorded_documents_are_todays():
    assert sorted(_RECORDED) == sorted(documents())
    for name, document in documents().items():
        assert _RECORDED[name]["document"] == _digest(document)


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_lattice_outputs_are_unchanged(name, tmp_path):
    assert digests(documents()[name], tmp_path) == _RECORDED[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record = {name: digests(doc, Path(scratch)) for name, doc in documents().items()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
