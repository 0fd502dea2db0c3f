"""Each kind's default_config output, and the few configs in PINNED_CONFIGS,
pinned as committed text.

tests/golden/<name>.csv holds one fingerprint line (numpy, scipy, BLAS, CPU
count) and then the stable CSV text of `run_experiment` on the named
config (a kind's `default_config`), wall time blanked as `content_hash`
blanks it.  The bits depend on the BLAS build and its thread count, so the
fingerprint line tells a failure on another machine from a changed result;
it is not compared.  A change that moves an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

and says which config moved and why.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from tapglass import experiments as exp

GOLDEN_DIR = Path(__file__).parent / "golden"

# A band cell above n = 12, where zc_margin_per_site comes from the Gibbs
# draws of the exact pass.  eta is 0.3, not 0.8: at 0.8 no pair of draws
# crosses the cut and the margin reads -inf whatever the draws are.
PINNED_CONFIGS = {
    "band_n16": {"kind": "band", "n": [16], "beta": [0.15], "seeds": [1, 2],
                 "n_replicas": [8, 64], "eta": 0.3},
}


def fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# numpy {np.__version__}, scipy {scipy.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, cpus {os.cpu_count()}")


def stable_text(name: str) -> str:
    cfg = (exp.config_from_dict(PINNED_CONFIGS[name]) if name in PINNED_CONFIGS
           else exp.default_config(name))
    return exp._stable_text(exp.run_experiment(cfg))


def _relative_gap(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) for two numeric cells; 0 for equal cells and
    inf for any other mismatch."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    if x == y:
        return 0.0
    gap = abs(x - y) / max(abs(x), abs(y))
    return gap if np.isfinite(gap) else float("inf")


def column_gaps(expected: str, actual: str) -> dict[str, float]:
    """Largest relative difference per column between two CSV texts."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if exp_lines[0] != act_lines[0]:
        return {"<header>": float("inf")}
    if len(exp_lines) != len(act_lines):
        return {"<row count>": float("inf")}
    columns = exp_lines[0].split(",")
    gaps = dict.fromkeys(columns, 0.0)
    for e_line, a_line in zip(exp_lines[1:], act_lines[1:]):
        for col, e, a in zip(columns, e_line.split(","), a_line.split(",")):
            gaps[col] = max(gaps[col], _relative_gap(e, a))
    return {col: gap for col, gap in gaps.items() if gap > 0.0}


def test_relative_gaps_name_the_moved_columns():
    expected = "a,b,c\n1,2.0,x\n3,4.0,y\n"
    actual = "a,b,c\n1.0,2.0000002,x\n3,4.0,z\n"
    gaps = column_gaps(expected, actual)
    assert set(gaps) == {"b", "c"}
    assert gaps["b"] == pytest.approx(1e-7)
    assert gaps["c"] == float("inf")
    assert column_gaps(expected, expected.replace("4.0", "nan"))["b"] == float("inf")
    assert column_gaps(expected, "a,b\n1,2.0\n") == {"<header>": float("inf")}


GOLDEN_NAMES = exp.EXPERIMENT_KINDS + tuple(PINNED_CONFIGS)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_default_config_output_matches_golden_file(name):
    header, expected = (GOLDEN_DIR / f"{name}.csv").read_text().split("\n", 1)
    actual = stable_text(name)
    if actual != expected:
        gaps = ", ".join(f"{col} {gap:.3g}" for col, gap in column_gaps(expected, actual).items())
        pytest.fail(
            f"{name} output differs from tests/golden/{name}.csv; largest relative "
            f"difference per column: {gaps}. Golden file made on: {header[2:]}; "
            f"this run: {fingerprint()[2:]}"
        )


if __name__ == "__main__":
    for name in sys.argv[1:] or GOLDEN_NAMES:
        (GOLDEN_DIR / f"{name}.csv").write_text(f"{fingerprint()}\n{stable_text(name)}")
