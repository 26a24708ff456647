"""Golden reference: generated graphs and sweep metrics pinned to stored values.

The fixtures under ``tests/golden/`` were written once and are only read
here, so a refactor that changes any generated edge or any metric fails
even when two runs of the new code agree with each other.

* ``gen_sha256.json`` maps ``modality:n:seed:format`` to the sha256 of
  ``groupnets gen --modality M --n N --seed S --format F`` output.
* ``sweep_10_40_120_x3_seed2024.json`` holds every CSV field of
  ``run_sweep(SweepConfig(sizes=(10, 40, 120), replications=3,
  master_seed=2024))``.  Integers must match exactly; floats match at
  rel 1e-9 (absolute floor 1e-12 for a rho2 of exactly 0), because the
  last digits of the solver results depend on the BLAS thread count.
* ``size_law_cdf_sha256.json`` maps ``support_min:support_max:exponent``
  to the sha256 of the cumulative probabilities that the size law's draws
  are looked up in, as float64 bytes.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from groupnets.cli import main
from groupnets.experiments import CSV_FIELDS, SweepConfig, run_sweep
from groupnets.partition import PowerLawSpec, _size_law_cdf

GOLDEN = Path(__file__).parent / "golden"
GEN_SHA256 = json.loads((GOLDEN / "gen_sha256.json").read_text())
SWEEP_ROWS = json.loads((GOLDEN / "sweep_10_40_120_x3_seed2024.json").read_text())
CDF_SHA256 = json.loads((GOLDEN / "size_law_cdf_sha256.json").read_text())


@pytest.mark.parametrize("key", sorted(GEN_SHA256))
def test_gen_output_matches_golden_sha256(key, tmp_path):
    modality, n, seed, fmt = key.split(":")
    out = tmp_path / "graph"
    argv = ["gen", "--modality", modality, "--n", n, "--seed", seed,
            "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SHA256[key]


def test_sweep_matches_golden_fixture():
    records = run_sweep(SweepConfig(sizes=(10, 40, 120), replications=3, master_seed=2024))
    assert len(records) == len(SWEEP_ROWS)
    for rec, want in zip(records, SWEEP_ROWS):
        for field in CSV_FIELDS:
            got, ref = getattr(rec, field), want[field]
            if isinstance(ref, float):
                assert math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-12), (field, got, ref)
            else:
                assert got == ref, (field, got, ref)


@pytest.mark.parametrize("key", sorted(CDF_SHA256))
def test_size_law_cdf_matches_golden_sha256(key):
    support_min, support_max, exponent = key.split(":")
    spec = PowerLawSpec(int(support_max), float(exponent), int(support_min))
    cum = _size_law_cdf(spec)[1]
    assert hashlib.sha256(cum.tobytes()).hexdigest() == CDF_SHA256[key]
