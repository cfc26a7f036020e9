"""The command line's answers on rational documents, byte for byte.

``rational_outputs.json`` holds, for each Q catalog algebra and two
solvable closures in t(4)/Q, the document and the stdout of
``verify --json``, ``analyze --json``, ``classify --json`` and
``enumerate --what lines`` on it, with each report's ``seconds``
removed.  It was recorded with a kernel that kept every raw rational a
Fraction, so the int fast path must give the same bytes.  Re-record,
only when an answer is meant to change, with
``PYTHONPATH=src python tests/test_rational_outputs.py``.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from cideals import Q, Subspace, builtin, catalog_algebras, restricted_algebra, serialize
from cideals.cli import main

GOLDEN = Path(__file__).parent / "rational_outputs.json"
COMMANDS = {
    "verify": ["verify", "--json"],
    "analyze": ["analyze", "--json"],
    "classify": ["classify", "--json"],
    "lines": ["enumerate", "--what", "lines"],
}
_SECONDS = re.compile(r'"seconds": [-+.0-9eE]+, ')


def _rational_solvable(seed):
    # The closure of two seeded vectors in t(4)/Q, as an algebra on its
    # canonical basis; seeds 2 and 10 give structure constants with
    # non-integral entries.
    t4 = builtin("upper_triangular", Q, 4)
    rng = random.Random(f"qsolvable/{seed}")
    vecs = [
        tuple(Q.scalar(rng.choice((-1, 0, 0, 0, 1, 2))) for _ in range(t4.dim))
        for _ in range(2)
    ]
    closed = t4.subalgebra_closure(Subspace.from_vectors(Q, t4.dim, vecs))
    return restricted_algebra(t4, closed)[0]


def documents():
    docs = {cid: serialize(l) for cid, l in catalog_algebras(Q)}
    for seed in (2, 10):
        docs[f"qrs({seed})"] = serialize(_rational_solvable(seed))
    return docs


def run_cli(args) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, _SECONDS.sub("", out.getvalue())


def outputs(name, document, directory: Path) -> dict:
    # The document is read as ``<name>.json`` from the working directory,
    # so the path that verify reports as the algebra id is the same on
    # every run.
    (directory / f"{name}.json").write_text(document, encoding="utf-8")
    return {key: run_cli([args[0], f"{name}.json"] + args[1:]) for key, args in COMMANDS.items()}


_RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_the_recorded_documents_are_todays():
    assert {name: case["document"] for name, case in _RECORDED.items()} == documents()


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_rational_outputs_are_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    case = _RECORDED[name]
    got = outputs(name, case["document"], tmp_path)
    assert {key: [code, text] for key, (code, text) in got.items()} == case["outputs"]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        record = {
            name: {"document": doc, "outputs": outputs(name, doc, Path(scratch))}
            for name, doc in documents().items()
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
