"""CLI reports compared byte for byte with the stored outputs in golden/.

Every report run here takes the exact path (no libm-dependent floats), so
the stored text is the same on any machine.  After an intended report
change, rewrite a file from ``main()``'s stdout for the same arguments.

The solver dumps are pinned by sha256 instead: their columns are numpy
floats, so a digest holds for one numpy build and pins that the frames
written by ``integrate --out`` do not move by a single bit.
"""

import hashlib
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


# sha256 over (file name, NUL, bytes) of every file in integrate --out's
# frames directory, in name order
DUMPS = {
    "flat": (0, "e8c043eb56f2046c2d9a045426fe86fdcd72b39be982bf1e3f995bb6a3a80ba0"),
    "holonomic": (0, "cb8bf226733a6645adc615421936caa9208df433b440e22c28abc478fd17b9c8"),
    # refused at 9 nodes: every frame is the input
    "gamma": (1, "48f21d6baa083d5ac2f06af17901d75a1633b5e4abef32b219f830f384df79e5"),
}


@pytest.mark.parametrize("demo", sorted(DUMPS))
def test_integrate_dump_matches_golden_digest(demo, tmp_path, capsys):
    code, want = DUMPS[demo]
    assert main(["integrate", "--demo", demo, "--grid", "9", "--out", str(tmp_path)]) == code
    capsys.readouterr()
    h = hashlib.sha256()
    for path in sorted((tmp_path / "frames").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == want
