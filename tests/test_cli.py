"""Command-line surface: subcommands, formats, exit codes, bounds."""

from __future__ import annotations

import pytest

import moycalc.cli as cli
from moycalc.cli import main
from moycalc.reporting import Report

CIRCLE_WEB = "web k=3 bottom=\ncup(1,2@1)\ncap(@1)\n"
IDENTITY_WEB = "web k=2 bottom=1,1\n"
UNKNOT_TANGLE = "tangle k=2 bottom=\ncup(-+@1)\ncap(@1)\n"
KINKED_UNKNOT = (
    "tangle k=2 bottom=\ncup(-+@1)\ncup(-+@2)\nX+(@2)\ncap(@3)\ncap(@1)\n"
)
OPEN_TANGLE = "tangle k=2 bottom=-\n"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# eval-web


def test_eval_web_closed_scalar(tmp_path, capsys) -> None:
    path = tmp_path / "circle.web"
    path.write_text(CIRCLE_WEB)
    code, out, _ = run(capsys, "eval-web", "--file", str(path))
    assert code == 0
    assert out == "q^2 + 1 + q^-2\n"


def test_eval_web_open_matrix(tmp_path, capsys) -> None:
    path = tmp_path / "identity.web"
    path.write_text(IDENTITY_WEB)
    code, out, _ = run(capsys, "eval-web", "--file", str(path))
    assert code == 0
    assert out.startswith("QMatrix 4x4\n")
    assert "((1,), (2,)) <- ((1,), (2,)): 1" in out


def test_eval_web_positioned_diagnostic(tmp_path, capsys) -> None:
    path = tmp_path / "bad.web"
    path.write_text("web k=3 bottom=\nmerge(9,9@1)\n")
    code, out, err = run(capsys, "eval-web", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2, column 1:")


def test_eval_web_rank_override_can_reject_labels(tmp_path, capsys) -> None:
    path = tmp_path / "circle.web"
    path.write_text(CIRCLE_WEB)
    code, _, err = run(capsys, "eval-web", "--file", str(path), "--k", "2")
    assert code == 2
    assert "not admissible for k=2" in err


def test_eval_web_missing_file(capsys) -> None:
    code, _, err = run(capsys, "eval-web", "--file", "/nonexistent.web")
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------------
# link-poly


def test_link_poly_unknot(tmp_path, capsys) -> None:
    path = tmp_path / "unknot.tangle"
    path.write_text(UNKNOT_TANGLE)
    code, out, _ = run(capsys, "link-poly", "--file", str(path))
    assert code == 0
    assert out == "q + q^-1\n"


def test_link_poly_rank_override(tmp_path, capsys) -> None:
    path = tmp_path / "unknot.tangle"
    path.write_text(UNKNOT_TANGLE)
    code, out, _ = run(capsys, "link-poly", "--file", str(path), "--k", "3")
    assert code == 0
    assert out == "q^2 + 1 + q^-2\n"


def test_link_poly_kinked_unknot_is_unchanged(tmp_path, capsys) -> None:
    path = tmp_path / "kink.tangle"
    path.write_text(KINKED_UNKNOT)
    code, out, _ = run(capsys, "link-poly", "--file", str(path))
    assert code == 0
    assert out == "q + q^-1\n"


def test_link_poly_rejects_open_words(tmp_path, capsys) -> None:
    path = tmp_path / "open.tangle"
    path.write_text(OPEN_TANGLE)
    code, _, err = run(capsys, "link-poly", "--file", str(path))
    assert code == 2
    assert "closed tangle word required" in err


def test_link_poly_needs_a_rank(tmp_path, capsys) -> None:
    path = tmp_path / "bare.tangle"
    path.write_text("cup(-+@1)\ncap(@1)\n")
    code, _, err = run(capsys, "link-poly", "--file", str(path))
    assert code == 2
    assert "no rank given" in err


# ----------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "moy", "--k", "3"),
        ("verify", "reidemeister", "--k", "2"),
        ("verify", "bijections", "--n", "3", "--k", "3"),
        ("verify", "hecke", "--n", "3"),
        ("verify", "groth", "--n", "3", "--k", "3"),
        ("verify", "foam"),
    ],
)
def test_verify_suites_pass(capsys, argv) -> None:
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_records_format(capsys) -> None:
    code, out, _ = run(capsys, "verify", "foam", "--format", "records")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.startswith("check=foam-")
        assert "passed=true" in line
        assert "anchor=" in line


def test_verify_reports_are_deterministic(capsys) -> None:
    first = run(capsys, "verify", "moy", "--k", "2")
    second = run(capsys, "verify", "moy", "--k", "2")
    assert first == second


def test_verify_exit_one_on_check_failure(capsys, monkeypatch) -> None:
    broken = [Report(check="foam-x", anchor="claim", passed=False)]
    monkeypatch.setattr(cli, "verify_foam", lambda: broken)
    code, out, _ = run(capsys, "verify", "foam")
    assert code == 1
    assert out.startswith("FAIL foam-x")


def test_verify_unknown_suite_is_a_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["moy", "reidemeister", "groth"])
def test_verify_rank_one_is_a_usage_error(capsys, suite) -> None:
    code, out, err = run(capsys, "verify", suite, "--k", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {suite} suite needs k >= 2\n"


@pytest.mark.parametrize(
    ("suite", "limit"), [("bijections", 7), ("hecke", 5), ("groth", 6)]
)
def test_verify_n_above_the_suite_bound_is_a_usage_error(capsys, suite, limit) -> None:
    # above these bounds the sweeps run for minutes or do not finish
    code, out, err = run(capsys, "verify", suite, "--n", str(limit + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {suite} suite needs n <= {limit}\n"


# ----------------------------------------------------------------------
# combinatorics printouts


def test_rs_tableaux_printout(capsys) -> None:
    code, out, _ = run(capsys, "rs", "2413")
    assert code == 0
    assert out == "insertion rows: [1,3],[2,4]\nrecording rows: [1,2],[3,4]\n"


def test_rs_accepts_comma_form(capsys) -> None:
    plain = run(capsys, "rs", "321")
    commas = run(capsys, "rs", "3,2,1")
    assert plain == commas


def test_rs_rejects_garbage(capsys) -> None:
    code, _, err = run(capsys, "rs", "21x")
    assert code == 2
    assert "one-line word" in err
    code, _, err = run(capsys, "rs", "122")
    assert code == 2


def test_hecke_kl_printout(capsys) -> None:
    code, out, _ = run(capsys, "hecke", "321")
    assert code == 0
    assert out == (
        "H[321]*(1) + H[231]*(q) + H[312]*(q) + H[132]*(q^2)"
        " + H[213]*(q^2) + H[123]*(q^3)\n"
    )


def test_hecke_identity(capsys) -> None:
    code, out, _ = run(capsys, "hecke", "12")
    assert code == 0
    assert out == "H[12]*(1)\n"


def test_fillings_enumeration(capsys) -> None:
    code, out, _ = run(capsys, "fillings", "2,1", "1,1,1")
    assert code == 0
    assert out == "[1,2],[3]\n[1,3],[2]\n[2,3],[1]\ntotal 3\n"


def test_fillings_empty_result(capsys) -> None:
    code, out, _ = run(capsys, "fillings", "3", "1,2")
    assert code == 0
    assert out == "total 0\n"


def test_fillings_size_mismatch(capsys) -> None:
    code, _, err = run(capsys, "fillings", "2,1", "2,2")
    assert code == 2
    assert "different sizes" in err


def test_fillings_rejects_negative_parts(capsys) -> None:
    code, _, err = run(capsys, "fillings", "2,-1", "1")
    assert code == 2
    assert "nonnegative" in err


# ----------------------------------------------------------------------
# bounds and usage errors


def test_k_bound_enforced_at_parse(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "moy", "--k", "5"])
    assert exc.value.code == 2
    assert "k must be between 1 and 4" in capsys.readouterr().err


def test_n_bound_enforced_at_parse(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bijections", "--n", "9"])
    assert exc.value.code == 2
    assert "n must be between 1 and 8" in capsys.readouterr().err


def test_permutation_bound(capsys) -> None:
    code, _, err = run(capsys, "rs", "123456789")
    assert code == 2
    assert "exceeds the bound n <= 8" in err


def test_composition_bound(capsys) -> None:
    code, _, err = run(capsys, "fillings", "5,4", "4,5")
    assert code == 2
    assert "exceeding the bound n <= 8" in err


def test_missing_subcommand_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
