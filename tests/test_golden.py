"""CLI reports compared byte for byte with the stored outputs in golden/.

Every run here takes the exact path (no libm-dependent floats), so the
stored text is the same on any machine.  After an intended report change,
rewrite a file from ``main()``'s stdout for the same arguments.
"""

from pathlib import Path

import pytest

from contactkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "verify_prime_verbose": (0, ["verify", "--form", "prime", "--verbose"]),
    "verify_torus_2_1_3": (0, ["verify", "--form", "torus:2,1,3"]),
    "verify_std_2": (0, ["verify", "--form", "std:2"]),
    "formal_circle_2": (0, ["formal", "--form", "circle:2"]),
    "ample_n2_samples50": (0, ["ample", "--n", "2", "--samples", "50"]),
    "fit_prime_degree2": (1, ["fit", "--form", "prime", "--degree", "2"]),
    "extend_std_degree2": (0, ["extend", "--form", "std", "--degree", "2"]),
    "gallery_torus": (0, ["gallery", "--form", "torus"]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_report_matches_golden(name, capsys):
    code, argv = RUNS[name]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
