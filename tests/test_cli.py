"""The command-line interface, run in-process through main()."""

import json

import pytest

from contactkit import cli
from contactkit.cli import main
from contactkit.coefficients import LaurentPoly
from contactkit.extend import ah_pullback_verify
from contactkit.formats import save_form
from contactkit.forms import Form, Point
from contactkit.gallery import rotation_automorphism
from contactkit.jets import SliceClass
from conftest import traced_peak


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_std(capsys):
    code, out = run_cli(capsys, "verify", "--form", "std", "--samples", "40")
    assert code == 0
    assert "result: OK" in out
    assert "run configuration" in out


def test_verify_rejects_noncontact_form(tmp_path, capsys):
    path = tmp_path / "dz1.json"
    save_form(Form(3, 1, {(0,): LaurentPoly.const(3, 1)}), path)
    code, out = run_cli(capsys, "verify", "--form", str(path))
    assert code == 1
    assert "FAIL" in out


def test_bad_form_name_is_a_reported_precondition(capsys):
    code, out = run_cli(capsys, "verify", "--form", "nope")
    assert code == 1
    assert "FAIL  precondition" in out
    assert "nope" in out


def test_broken_form_document_is_reported(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out = run_cli(capsys, "verify", "--form", str(path))
    assert code == 1
    assert "FAIL  precondition" in out
    assert "line 1" in out


def test_formal_default_pair(capsys):
    code, out = run_cli(capsys, "formal", "--samples", "40")
    assert code == 0
    assert "result: OK" in out


def test_ample_rows(capsys):
    code, out = run_cli(capsys, "ample", "--samples", "40", "--seed", "1")
    assert code == 0
    for i in (1, 2, 3):
        assert f"row {i}" in out


def test_ample_refuses_a_negative_n(capsys):
    code, out = run_cli(capsys, "ample", "--n", "-1")
    assert code == 1
    assert "FAIL  precondition" in out and "n >= 0, got -1" in out
    assert "result: OK" not in out


def test_integrate_refuses_non_finite_bounds(capsys):
    for flag, value in (("--eps", "nan"), ("--delta", "inf")):
        code, out = run_cli(capsys, "integrate", "--demo", "flat", "--grid", "9", flag, value)
        assert code == 1
        assert "FAIL  precondition" in out and "finite and positive" in out


def test_extend_with_map(capsys):
    code, out = run_cli(capsys, "extend", "--form", "std", "--samples", "20",
                        "--map", "covering")
    assert code == 0
    assert "antiholomorphic defect at order 2" in out
    assert "pullback under covering" in out


def test_extend_with_the_rotation_map(capsys, monkeypatch):
    maps = []

    def verify(F, *args):
        maps.append(F)
        return ah_pullback_verify(F, *args)

    monkeypatch.setattr(cli, "ah_pullback_verify", verify)
    code, out = run_cli(capsys, "extend", "--form", "std", "--samples", "20",
                        "--map", "rotation")
    assert code == 0
    pt = Point([0.5 + 0.25j, -1.0 + 0j, 2.0 - 1j])
    assert [F.evaluate(pt).values for F in maps] == [rotation_automorphism().evaluate(pt).values]
    assert out.splitlines() == [
        "== flat extension off the real slice ==",
        "PASS  antiholomorphic defect at order 2: value=0.0 bound=1e-09",
        "PASS  defect at order 3 (informational): 0.0",
        "PASS  pullback under rotation: map dbar-defect at order 2: value=0.0 bound=1e-08",
        "PASS  pullback under rotation: input form asymptotically holomorphic at image points",
        "PASS  pullback under rotation: max |dbar a_i|: value=0.0 bound=1e-08",
        "PASS  pullback under rotation: max |b_i|: value=0.0 bound=1e-08",
        "PASS  pullback under rotation: max |d b_i|: value=0.0 bound=1e-08",
        "PASS  run configuration: form=std degree=2 samples=20 seed=0 tol=1e-09",
        "result: OK",
        "",
    ]


def test_ample_fails_a_row_whose_slice_disagrees_with_the_relation(capsys, monkeypatch):
    """The row check can fail: an empty slice claims h = 0 on every row,
    while the random jets' relation values are nonzero."""
    monkeypatch.setattr(cli, "ampleness_slice", lambda restricted: SliceClass("empty"))
    code, out = run_cli(capsys, "ample", "--samples", "10", "--seed", "1")
    assert code == 1
    for i in (1, 2, 3):
        assert (f"FAIL  row {i}: slice membership matches relation values: 10 jets: "
                "empty=10 full=0 hyperplane=0") in out
    assert "result: OK" not in out


def test_extend_unknown_map(capsys):
    code, out = run_cli(capsys, "extend", "--map", "squaring")
    assert code == 1
    assert "unknown map" in out


def test_integrate_flat_demo(capsys):
    code, out = run_cli(capsys, "integrate", "--demo", "flat", "--grid", "9")
    assert code == 0
    assert "solver summary" in out
    assert "result: OK" in out


def test_integrate_is_deterministic(capsys):
    _, first = run_cli(capsys, "integrate", "--demo", "flat", "--grid", "9")
    _, second = run_cli(capsys, "integrate", "--demo", "flat", "--grid", "9")
    assert first == second


def test_integrate_takes_no_n(capsys):
    """The built-in demos are three-dimensional, so integrate has no --n."""
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--n", "2", "--grid", "9"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "formal", "ample", "extend", "fit"])
def test_negative_samples_is_a_reported_precondition(capsys, command):
    code, out = run_cli(capsys, command, "--samples", "-3")
    assert code == 1
    assert "FAIL  precondition" in out and "--samples must be >= 0, got -3" in out
    assert "result: OK" not in out


def test_integrate_out_inventory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _ = run_cli(capsys, "integrate", "--demo", "flat", "--grid", "9",
                      "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "integrate_report.txt").exists()
    meta = json.loads((out_dir / "result" / "meta.json").read_text())
    assert meta["nodes"] == 9
    assert meta["frames"] == 17
    assert sorted(p.name for p in (out_dir / "result").iterdir()) == [
        "input.txt", "meta.json", "output.txt"]


def test_integrate_out_holds_no_frame(tmp_path, capsys):
    """``integrate --demo gamma --grid 33 --out DIR`` builds no frame: its
    traced peak is 18 MB, set by the solver, against 71 MB when it listed
    all 17 frames of 3.4 MB for the verifier and the dump to share.  The
    dump is the two endpoints."""
    _, peak, _ = traced_peak(run_cli, capsys, "integrate", "--demo", "gamma", "--grid", "33",
                             "--out", str(tmp_path))
    assert peak <= 26 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB peak"
    assert len(list((tmp_path / "result").glob("*.txt"))) == 2


def test_verify_out_report_matches_stdout(tmp_path, capsys):
    out_dir = tmp_path / "v"
    code, out = run_cli(capsys, "verify", "--form", "torus:1,0,2",
                        "--samples", "30", "--out", str(out_dir))
    assert code == 0
    text = (out_dir / "verify_report.txt").read_text()
    assert text.strip() == out.strip()


def test_gallery_command(capsys):
    code, out = run_cli(capsys, "gallery")
    assert code == 0
    assert "result: OK" in out


def test_gallery_filter_flag(capsys):
    code, out = run_cli(capsys, "gallery", "--form", "sigma")
    assert code == 0
    assert "sigma t=" in out
    assert "torus" not in out


def test_fit_recovers_polynomial_form(capsys):
    code, out = run_cli(capsys, "fit", "--form", "std", "--degree", "1",
                        "--samples", "30")
    assert code == 0
    assert "fit residual" in out


def test_fit_flags_antiholomorphic_data(tmp_path, capsys):
    zbar = LaurentPoly.zbar(3, 0)
    path = tmp_path / "zbar.json"
    save_form(Form(3, 1, {(0,): zbar, (2,): LaurentPoly.const(3, 1)}), path)
    code, out = run_cli(capsys, "fit", "--form", str(path), "--degree", "2",
                        "--samples", "40")
    assert code == 1
    assert "FAIL  fit residual" in out


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_only_verify_and_formal_take_verbose(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ample", "--verbose"])
    assert exc.value.code == 2
    assert "--verbose" in capsys.readouterr().err
