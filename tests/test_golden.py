"""Seeded CLI outputs equal the golden corpus byte for byte (tests/golden)."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_corpus_holds_every_case():
    stored = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__")
    assert stored == sorted(regen.CASES)


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_outputs_match_corpus(case, tmp_path):
    case_dir = GOLDEN / case
    produced = regen.produce(case_dir, tmp_path)
    for name in regen.OUTPUTS:
        assert produced[name] == (case_dir / name).read_bytes(), f"{case}/{name} differs"
