import json
import math
import warnings

import pytest

from kcat0 import cli
from kcat0.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_midpoint_violation_exit_code(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code, _, _ = run(["--output", str(out), "certify",
                          "--builtin", "halfplane-x-disk",
                          "--x", "i,0", "--y", "4i,0", "--z", "2i,1/3"],
                         capsys)
        assert code == 2
        data = json.loads(out.read_text())
        assert data["schema"] == "kcat0/1"
        assert data["verdict"] == "violation-certified"
        assert data["defect"]["value"] == pytest.approx(0.1201133, abs=1e-6)

    def test_product_mode(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code, _, _ = run(["--output", str(out), "certify", "--mode", "product",
                          "--left", "halfplane", "--right", "disk",
                          "--x", "i", "--y", "4i", "--base", "0"], capsys)
        assert code == 2
        data = json.loads(out.read_text())
        assert data["defect"]["value"] == pytest.approx((0.5 * math.log(2)) ** 2, abs=1e-9)


class TestDistance:
    def test_disk_value_printed(self, capsys):
        code, out, _ = run(["distance", "--builtin", "disk",
                            "--from", "0", "--to", "0.5"], capsys)
        assert code == 0
        assert "0.549306" in out

    def test_domain_file(self, tmp_path, capsys):
        spec = {"type": "product",
                "left": {"type": "halfplane", "boundary_point": [0.0, 0.0],
                         "inward_normal": [0.0, 1.0]},
                "right": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}}
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(["distance", "--domain", str(path),
                            "--from", "i,0", "--to", "4i,0.3333333333333333"], capsys)
        assert code == 0
        assert "0.693147" in out

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "disk",, }')
        code, _, err = run(["distance", "--domain", str(path),
                            "--from", "0", "--to", "0.5"], capsys)
        assert code == 1
        assert ":1:" in err  # line/column diagnostic

    def test_stdout_is_one_json_document(self, capsys):
        code, out, _ = run(["distance", "--builtin", "disk",
                            "--from", "0", "--to", "0.5"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["distance"]["value"] == pytest.approx(0.5 * math.log(3.0), abs=1e-12)


class TestBadInput:
    @pytest.mark.parametrize("argv, message", [
        (["distance", "--builtin", "disk", "--from", "abc", "--to", "0.5"],
         "error: --from: cannot parse complex literal 'abc'\n"),
        (["distance", "--builtin", "disk", "--from", "0", "--to", "1+"],
         "error: --to: cannot parse complex literal '1+'\n"),
        (["certify", "--builtin", "disk", "--x", "0", "--y", "0.5", "--z", "zz"],
         "error: --z: cannot parse complex literal 'zz'\n"),
        (["certify", "--builtin", "disk", "--x", "0", "--y", "0.5"],
         "error: --z is required\n"),
        (["linetype", "--builtin-r", "quartic", "--point", "0,q"],
         "error: --point: cannot parse complex literal 'q'\n"),
        (["limits", "--experiment", "dilation-disk", "--n", "10", "--pairs", "0:x"],
         "error: --pairs: cannot parse complex literal 'x'\n"),
        (["limits", "--experiment", "dilation-disk", "--n", "10", "--pairs", "0.5"],
         "error: --pairs: expected 'from:to', got '0.5'\n"),
    ], ids=["from", "to", "z", "missing-z", "point", "pairs", "pairs-colon"])
    def test_bad_point_is_one_line(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("spec, message", [
        ('{"type": "disk"}', "error: 'disk' domain node is missing key 'center'\n"),
        ('{"type": "disk", "center": 5, "radius": 1}',
         "error: 'disk' domain node has a value of the wrong shape: "
         "complex() argument after * must be an iterable, not int\n"),
    ], ids=["missing-key", "wrong-shape"])
    def test_schema_invalid_domain_is_one_line(self, spec, message, tmp_path, capsys):
        path = tmp_path / "dom.json"
        path.write_text(spec)
        code, out, err = run(["distance", "--domain", str(path),
                              "--from", "0", "--to", "0.5"], capsys)
        assert (code, out, err) == (1, "", message)


    @pytest.mark.parametrize("argv, message", [
        (["distance", "--domain", "{missing}", "--from", "0", "--to", "0.5"],
         "error: cannot open {missing}: No such file or directory\n"),
        (["distance", "--domain", "{dir}", "--from", "0", "--to", "0.5"],
         "error: cannot open {dir}: Is a directory\n"),
        (["linetype", "--polynomial", "{missing}", "--point", "0,0"],
         "error: cannot open {missing}: No such file or directory\n"),
        (["linetype", "--polynomial", "{dir}", "--point", "0,0"],
         "error: cannot open {dir}: Is a directory\n"),
        (["linetype", "--point", "0,0"],
         "error: provide --builtin-r or --polynomial\n"),
        (["linetype", "--polynomial", "{no_monomials}", "--point", "0,0"],
         "error: polynomial JSON is missing key 'monomials'\n"),
        (["--output", "{missing}/out.json", "distance", "--builtin", "disk",
          "--from", "0", "--to", "0.5"],
         "error: cannot write {missing}/out.json: No such file or directory\n"),
    ], ids=["domain-missing", "domain-dir", "polynomial-missing", "polynomial-dir",
            "linetype-no-r", "polynomial-no-monomials", "output-dir-missing"])
    def test_bad_file_is_one_line(self, argv, message, tmp_path, capsys):
        (tmp_path / "poly.json").write_text('{"dimension": 2}')
        paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path),
                 "no_monomials": str(tmp_path / "poly.json")}
        code, out, err = run([a.format(**paths) for a in argv], capsys)
        assert (code, out, err) == (1, "", message.format(**paths))

    @pytest.mark.parametrize("argv, message", [
        (["limits", "--experiment", "lemma32", "--builtin", "halfplane-x-disk", "--n", "2",
          "--directions", "0"],
         "error: a Hausdorff reading needs at least two directions, got 0\n"),
        # one direction gives a one-point cloud, which has no mesh
        (["limits", "--experiment", "lemma32", "--builtin", "halfplane-x-disk", "--n", "2",
          "--directions", "1"],
         "error: a Hausdorff reading needs at least two directions, got 1\n"),
        (["limits", "--experiment", "lemma32", "--builtin", "halfplane-x-disk", "--n", "2",
          "--window", "0"],
         "error: the window radius must be positive, got 0.0\n"),
        (["limits", "--experiment", "frankel-flat", "--n", "2", "--directions", "0"],
         "error: a Hausdorff reading needs at least two directions, got 0\n"),
        (["example36", "--n", "1", "--directions", "0"],
         "error: a Hausdorff reading needs at least two directions, got 0\n"),
        (["limits", "--experiment", "dilation-disk", "--n", "0"],
         "error: --n: every value must be at least 1, got 0\n"),
        (["mconvex", "--builtin", "ball2", "--window", "0"],
         "error: the window radius must be positive, got 0.0\n"),
        (["mconvex", "--builtin", "ball2", "--window", "-1"],
         "error: the window radius must be positive, got -1.0\n"),
        # an infinite window used to warn from numpy and then find no samples
        (["mconvex", "--builtin", "ball2", "--window", "inf"],
         "error: the window radius must be finite, got inf\n"),
        # NaN compares false, so each of these used to pass its check and exit 0
        (["certify", "--builtin", "example36", "--x", "1e-6,1e-6", "--y", "4e-6,1e-6",
          "--z", "2e-6,2e-6", "--tol", "nan"],
         "error: the midpoint tolerance must be finite and at least 0, got nan\n"),
        (["certify", "--builtin", "example36", "--x", "1e-6,1e-6", "--y", "4e-6,1e-6",
          "--z", "2e-6,2e-6", "--tol", "-1"],
         "error: the midpoint tolerance must be finite and at least 0, got -1.0\n"),
        # points outside the domain: the closed-form midpoint used to raise
        # a math domain error, and the numeric one must not shoot its slice
        (["certify", "--builtin", "disk", "--x", "2", "--y", "0.1", "--z", "0"],
         "error: point [2.+0.j] is not in the domain\n"),
        (["certify", "--builtin", "example36", "--x", "0.2,0.2", "--y", "3,0.4",
          "--z", "0.3,0.3"],
         "error: point [3. +0.j 0.4+0.j] is not in the domain\n"),
        (["mconvex", "--builtin", "ball2", "--m", "nan"],
         "error: m must be finite and at least 1, got nan\n"),
        (["mconvex", "--builtin", "ball2", "--target-c", "nan"],
         "error: the target constant must be finite and positive, got nan\n"),
        (["linetype", "--builtin-r", "quartic", "--point", "0,0", "--cap", "0"],
         "error: the order cap must be at least 2, got 0\n"),
        # a product certificate sets its own midpoint tolerance
        (["certify", "--mode", "product", "--left", "halfplane", "--right", "disk",
          "--x", "i", "--y", "4i", "--base", "0", "--tol", "nan"],
         "error: --tol does not apply to --mode product: "
         "the certificate sets its own midpoint tolerance\n"),
        # an interior point, where r o l does not vanish at 0
        (["linetype", "--builtin-r", "quartic", "--point", "0.5j,0"],
         "error: the base point must lie on the boundary {r = 0}, but r there is -0.5\n"),
        # an infinite window used to give a reading of millions and exit 0
        (["limits", "--experiment", "frankel-flat", "--n", "2", "--window", "inf"],
         "error: the window radius must be finite, got inf\n"),
        (["limits", "--experiment", "frankel-flat", "--n", "2", "--seed", "-1"],
         "error: --seed must be a non-negative integer, got '-1'\n"),
        (["mconvex", "--builtin", "ball2", "--seed", "-3"],
         "error: --seed must be a non-negative integer, got '-3'\n"),
        # usage errors exit 1, not argparse's 2, which would read as a
        # certified violation; the list of choices is argparse's wording,
        # which differs between Python versions, so only the start is pinned
        (["certify", "--mode", "comparison", "--builtin", "disk"],
         "error: argument --mode: invalid choice: 'comparison'"),
        (["certify", "--builtin", "disk", "--no-such-flag"],
         "error: unrecognized arguments: --no-such-flag\n"),
        ([], "error: the following arguments are required: command\n"),
        (["--seed", "abc", "selftest"],
         "error: argument --seed: invalid int value: 'abc'\n"),
        # a bad sample count used to blame the window
        (["mconvex", "--builtin", "ball2", "--samples", "0"],
         "error: the sample count must be at least 1, got 0\n"),
        (["example36", "--samples", "-1"],
         "error: the sample count must be at least 1, got -1\n"),
        # each used to run the m-convexity and Hausdorff stages first, then
        # fail in the large-n certificate
        (["example36", "--big-n", "0"], "error: --big-n must be at least 1, got 0\n"),
        (["example36", "--big-n", "-1"], "error: --big-n must be at least 1, got -1\n"),
        # a report with no CSV form used to be written as JSON, exiting 0
        (["--format", "csv", "mconvex", "--builtin", "ball2", "--samples", "10"],
         "error: --format csv: this report has no CSV form; use --format json\n"),
    ], ids=["lemma32-directions", "lemma32-one-direction", "lemma32-window", "frankel-directions",
            "example36-directions", "dilation-n", "mconvex-window-0", "mconvex-window-negative",
            "mconvex-window-inf",
            "certify-tol-nan", "certify-tol-negative", "certify-closed-form-point-outside",
            "certify-numeric-point-outside", "mconvex-m-nan", "mconvex-target-c-nan",
            "linetype-cap-0", "product-tol", "linetype-off-boundary",
            "frankel-window-inf", "limits-seed-negative", "mconvex-seed-negative",
            "certify-mode-comparison", "unknown-flag", "no-subcommand", "seed-not-int",
            "mconvex-samples-0", "example36-samples-negative", "example36-big-n-0",
            "example36-big-n-negative", "mconvex-format-csv"])
    def test_bad_parameter_is_one_line(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(message)

    # JSON admits NaN and Infinity: the coefficient used to end in an SVD
    # traceback, the radius in a misleading interior-point error, and the
    # affine matrix in an "exact" distance and an m-convexity pass
    @pytest.mark.parametrize("argv, text, message", [
        (["linetype", "--polynomial", "{path}", "--point", "0,0"],
         '{"dimension": 2, "monomials": [{"exponents": [0, 1, 0, 0], "coefficient": -1},'
         ' {"exponents": [0, 0, 4, 0], "coefficient": NaN}]}',
         "error: polynomial coefficient of [0, 0, 4, 0] must be finite, got nan\n"),
        (["distance", "--domain", "{path}", "--from", "0", "--to", "0.5"],
         '{"type": "disk", "center": [0, 0], "radius": Infinity}',
         "error: disk needs a finite center and a positive finite radius, "
         "got center 0j and radius inf\n"),
        (["mconvex", "--domain", "{path}", "--samples", "5"],
         '{"type": "affine_image", "matrix": [[1, 0], [0, 0], [0, 0], [Infinity, 0]],'
         ' "offset": [[0, 0], [0, 0]], "inner": {"type": "ball", "center": [[0, 0], [0, 0]], "radius": 1}}',
         "error: affine matrix entries must be finite\n"),
    ], ids=["polynomial-nan", "disk-radius-infinity", "affine-matrix-infinity"])
    def test_non_finite_json_is_one_line(self, argv, text, message, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run([a.format(path=path) for a in argv], capsys)
        assert (code, out, err) == (1, "", message)

    # both used to run their whole pipeline (about 0.8 s for example36) before
    # finding that the report has no CSV form
    @pytest.mark.parametrize("argv, module, entry", [
        (["--format", "csv", "mconvex", "--builtin", "ball2"], "convexity", "local_m_convex_check"),
        (["--format", "csv", "example36"], "limits", "example36"),
    ], ids=["mconvex", "example36"])
    def test_csv_is_refused_before_the_pipeline_runs(self, argv, module, entry, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError(f"{entry} ran")
        monkeypatch.setattr(getattr(cli, module), entry, fail)
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", "error: --format csv: this report has no CSV form; use --format json\n")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kcat0")

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_seed_environment_is_one_line(self, value, monkeypatch, capsys):
        monkeypatch.setenv("KCAT0_SEED", value)
        code, out, err = run(["selftest"], capsys)
        assert (code, out, err) == (
            1, "", f"error: KCAT0_SEED must be a non-negative integer, got {value!r}\n")


class TestOtherCommands:
    def test_mconvex_polydisk_diverges(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, _ = run(["--output", str(out), "mconvex", "--builtin", "polydisk2",
                          "--window", "2", "--m", "2", "--samples", "150"], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["diverging"] is True

    def test_linetype_quartic(self, tmp_path, capsys):
        out = tmp_path / "lt.json"
        code, _, _ = run(["--output", str(out), "linetype", "--builtin-r", "quartic",
                          "--point", "0,0"], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["line_type"] == 4

    def test_limits_dilation_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, _ = run(["--output", str(out), "--format", "csv", "limits",
                          "--experiment", "dilation-disk", "--n", "10", "100"],
                         capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,pairIndex,gap"
        assert len(lines) == 3

    def test_limits_dilation_json(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code, _, _ = run(["--output", str(out), "limits",
                          "--experiment", "dilation-disk", "--n", "10", "100"], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert (data["schema"], data["kind"]) == ("kcat0/1", "convergence-table")
        assert [(row["n"], row["pairIndex"]) for row in data["rows"]] == [(10, 0), (100, 0)]
        assert data["monotone_decreasing"] is True

    def test_limits_frankel_quartic_has_no_anchor(self, capsys):
        # f(0, w)/|w|^n = |w|^(4 - n), so every argmax sits on a grid edge;
        # numpy warnings would print more lines on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["limits", "--experiment", "frankel-quartic"], capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: n=10: argmax of f(0,w)/|w|^n pinned")

    def test_selftest_passes(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestDeterminism:
    def test_identical_bytes(self, tmp_path, capsys):
        args = ["certify", "--builtin", "halfplane-x-disk",
                "--x", "i,0", "--y", "4i,0", "--z", "2i,0.25"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["--seed", "7", "--output", str(out1)] + args, capsys)
        run(["--seed", "7", "--output", str(out2)] + args, capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_mconvex_deterministic(self, tmp_path, capsys):
        args = ["mconvex", "--builtin", "ball2", "--window", "2",
                "--m", "2", "--samples", "100"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["--seed", "3", "--output", str(out1)] + args, capsys)
        run(["--seed", "3", "--output", str(out2)] + args, capsys)
        assert out1.read_bytes() == out2.read_bytes()
