"""Command-line surface: subcommands, formats, exit codes, bounds."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moycalc
import moycalc.symhecke as symhecke
import moycalc.verify as verify
from moycalc.cli import EXIT_CLOSED_PIPE, main
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


def test_eval_web_header_rank_above_the_bound(tmp_path, capsys) -> None:
    path = tmp_path / "circle9.web"
    path.write_text("web k=9 bottom=\ncup(1,8@1); cap(@1)\n")
    code, out, err = run(capsys, "eval-web", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 1, column 1: k out of range: need k <= 4, got 9\n"


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


def test_link_poly_header_rank_above_the_bound(tmp_path, capsys) -> None:
    path = tmp_path / "unknot7.tangle"
    path.write_text("tangle k=7 bottom=\ncup(-+@1)\ncap(@1)\n")
    code, out, err = run(capsys, "link-poly", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 1, column 1: k out of range: need k <= 4, got 7\n"
    code, out, _ = run(capsys, "link-poly", "--file", str(path), "--k", "3")
    assert code == 0
    assert out == "q^2 + 1 + q^-2\n"


def test_link_poly_positions_ill_typed_layers(tmp_path, capsys) -> None:
    path = tmp_path / "bad.tangle"
    path.write_text("cup(-+@1)\ncap(@2)\n")
    assert run(capsys, "link-poly", "--file", str(path), "--k", "2") == (
        2,
        "",
        "error: line 2, column 1: cap position 2 out of range for boundary '-+'\n",
    )


@pytest.mark.parametrize("command", ["eval-web", "link-poly"])
def test_undecodable_file_is_a_usage_error(tmp_path, capsys, command) -> None:
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"web k=3 bottom=\n\xff\n")
    assert run(capsys, command, "--file", str(path)) == (
        2,
        "",
        "error: 'utf-8' codec can't decode byte 0xff in position 16: "
        "invalid start byte\n",
    )


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


FOAM_TEXT = """\
PASS foam-frobenius: C[x]/(x^3) with the signed comultiplication and the trace -1 on x^2 is a commutative Frobenius algebra [unit, associativity, counit, coassociativity and the compatibility square hold on the full basis]
PASS foam-structure-constants: the comultiplication sends 1 to -(1@x^2 + x@x + x^2@1), x to -(x@x^2 + x^2@x), x^2 to -x^2@x^2, and the trace kills 1 and x and sends x^2 to -1 [all structure constants match]
PASS foam-theta: theta surfaces evaluate to the sign of the dot arrangement: +1 on even arrangements of 0,1,2 dots, -1 on odd ones, 0 whenever two disks carry equal dots [all dot triples up to 3 dots per disk]
PASS foam-surgery: cutting a tube decomposes minus the identity into the three two-dot terms through the trace-then-unit composite, and fails under sign flips or dropped terms [accepted realizations: trace-then-unit]
PASS foam-degrees: the degree of every basic foam piece equals the degree of its linear map, shifts included, and each dot adds 2 [all catalogue entries with up to two dots]
"""
FOAM_RECORDS = """\
check=foam-frobenius passed=true anchor='C[x]/(x^3) with the signed comultiplication and the trace -1 on x^2 is a commutative Frobenius algebra' witness='unit, associativity, counit, coassociativity and the compatibility square hold on the full basis'
check=foam-structure-constants passed=true anchor='the comultiplication sends 1 to -(1@x^2 + x@x + x^2@1), x to -(x@x^2 + x^2@x), x^2 to -x^2@x^2, and the trace kills 1 and x and sends x^2 to -1' witness='all structure constants match'
check=foam-theta passed=true anchor='theta surfaces evaluate to the sign of the dot arrangement: +1 on even arrangements of 0,1,2 dots, -1 on odd ones, 0 whenever two disks carry equal dots' witness='all dot triples up to 3 dots per disk'
check=foam-surgery passed=true anchor='cutting a tube decomposes minus the identity into the three two-dot terms through the trace-then-unit composite, and fails under sign flips or dropped terms' witness='accepted realizations: trace-then-unit'
check=foam-degrees passed=true anchor='the degree of every basic foam piece equals the degree of its linear map, shifts included, and each dot adds 2' witness='all catalogue entries with up to two dots'
"""


@pytest.mark.parametrize("fmt,expected", [("text", FOAM_TEXT), ("records", FOAM_RECORDS)])
def test_verify_foam_stdout_is_pinned(capsys, fmt, expected) -> None:
    assert run(capsys, "verify", "foam", "--format", fmt) == (0, expected, "")


REIDEMEISTER_TEXT = """\
PASS reidemeister-1-k{k}: a kinked strand equals the plain strand: both kink sides, both crossing signs, both orientations [8 kink diagrams equal the identity matrix]
PASS reidemeister-2-k{k}: a crossing followed by its reverse equals the identity on all four orientation pairs, both orders [8 crossing pairs cancel to the identity matrix]
PASS reidemeister-3-k{k}: the two ways of braiding three upward strands give the same matrix, for either crossing sign [both braid words agree]
PASS zigzag-k{k}: a cup-cap zig-zag straightens to the plain strand, both sides and both orientations [4 zig-zags equal the identity matrix]
"""
REIDEMEISTER_RECORDS = """\
check=reidemeister-1-k{k} passed=true anchor='a kinked strand equals the plain strand: both kink sides, both crossing signs, both orientations' witness='8 kink diagrams equal the identity matrix'
check=reidemeister-2-k{k} passed=true anchor='a crossing followed by its reverse equals the identity on all four orientation pairs, both orders' witness='8 crossing pairs cancel to the identity matrix'
check=reidemeister-3-k{k} passed=true anchor='the two ways of braiding three upward strands give the same matrix, for either crossing sign' witness='both braid words agree'
check=zigzag-k{k} passed=true anchor='a cup-cap zig-zag straightens to the plain strand, both sides and both orientations' witness='4 zig-zags equal the identity matrix'
"""


@pytest.mark.parametrize(
    "fmt,template", [("text", REIDEMEISTER_TEXT), ("records", REIDEMEISTER_RECORDS)]
)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_verify_reidemeister_stdout_is_pinned(capsys, fmt, template, k) -> None:
    argv = ("verify", "reidemeister", "--k", str(k), "--format", fmt)
    assert run(capsys, *argv) == (0, template.format(k=k), "")


MOY_TEXT = """\
PASS moy-I-k{k}: digon webs with label pairs (1,{k1}) and ({k1},1) on one {k}-strand both equal [{k}]*id at k={k} [[{k}] = {qk}]
PASS moy-II-k{k}: the digon web split(1,1);merge(1,1) on one 2-strand equals [2]*id at k={k} [[2] = q + q^-1]
PASS moy-III-k{k}: the four-layer web on boundary (1,{k}) equals the square web plus [{k1}]*id at k={k} [[{k1}] = {qk1}; square web vanishes (its middle edge spans a 0-dimensional space)]
PASS moy-IV-k{k}: the eight-layer web on boundary ({k},1,{k1}) equals id plus [{k2}]*(double wall web) at k={k} [[{k2}] = {qk2}]
PASS moy-V-k{k}: the two braid differences of the E-webs on three 1-strands agree at k={k} [E_s = split(1,1) after merge(1,1)]
"""
MOY_RECORDS = """\
check=moy-I-k{k} passed=true anchor='digon webs with label pairs (1,{k1}) and ({k1},1) on one {k}-strand both equal [{k}]*id at k={k}' witness='[{k}] = {qk}'
check=moy-II-k{k} passed=true anchor='the digon web split(1,1);merge(1,1) on one 2-strand equals [2]*id at k={k}' witness='[2] = q + q^-1'
check=moy-III-k{k} passed=true anchor='the four-layer web on boundary (1,{k}) equals the square web plus [{k1}]*id at k={k}' witness='[{k1}] = {qk1}; square web vanishes (its middle edge spans a 0-dimensional space)'
check=moy-IV-k{k} passed=true anchor='the eight-layer web on boundary ({k},1,{k1}) equals id plus [{k2}]*(double wall web) at k={k}' witness='[{k2}] = {qk2}'
check=moy-V-k{k} passed=true anchor='the two braid differences of the E-webs on three 1-strands agree at k={k}' witness='E_s = split(1,1) after merge(1,1)'
"""
# [k], [k-1] and [k-2] as the reports print them
QUANTUM_INTS = {
    2: ("q + q^-1", "1", "0"),
    3: ("q^2 + 1 + q^-2", "q + q^-1", "1"),
    4: ("q^3 + q + q^-1 + q^-3", "q^2 + 1 + q^-2", "q + q^-1"),
}


@pytest.mark.parametrize("fmt,template", [("text", MOY_TEXT), ("records", MOY_RECORDS)])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_verify_moy_stdout_is_pinned(capsys, fmt, template, k) -> None:
    qk, qk1, qk2 = QUANTUM_INTS[k]
    expected = template.format(k=k, k1=k - 1, k2=k - 2, qk=qk, qk1=qk1, qk2=qk2)
    argv = ("verify", "moy", "--k", str(k), "--format", fmt)
    assert run(capsys, *argv) == (0, expected, "")


BIJECTIONS_TEXT = """\
PASS bijections-coset-filling-n4: minimal double-coset representatives and column-strict fillings are equinumerous for every shape/content pair [64 (mu, nu) pairs]
PASS bijections-dimension-n4-k3: column-strict fillings over all shapes count the wedge space dimension, the product of binomials C(k, part) [8 contents at k=3]
"""
BIJECTIONS_RECORDS = """\
check=bijections-coset-filling-n4 passed=true anchor='minimal double-coset representatives and column-strict fillings are equinumerous for every shape/content pair' witness='64 (mu, nu) pairs'
check=bijections-dimension-n4-k3 passed=true anchor='column-strict fillings over all shapes count the wedge space dimension, the product of binomials C(k, part)' witness='8 contents at k=3'
"""
HECKE_TEXT = """\
PASS hecke-kl-bar-invariant-n4: every Kazhdan-Lusztig basis element is fixed by the bar involution [24 elements]
PASS hecke-annihilator-n4: when the insertion tableau has more rows than the composition has nonzero parts, the Kazhdan-Lusztig element acts as zero on the induced sign module [56 (element, composition) pairs]
"""
HECKE_RECORDS = """\
check=hecke-kl-bar-invariant-n4 passed=true anchor='every Kazhdan-Lusztig basis element is fixed by the bar involution' witness='24 elements'
check=hecke-annihilator-n4 passed=true anchor='when the insertion tableau has more rows than the composition has nonzero parts, the Kazhdan-Lusztig element acts as zero on the induced sign module' witness='56 (element, composition) pairs'
"""


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("bijections", "--n", "4", "--k", "3", "--format", "text"), BIJECTIONS_TEXT),
        (("bijections", "--n", "4", "--k", "3", "--format", "records"), BIJECTIONS_RECORDS),
        (("hecke", "--n", "4", "--format", "text"), HECKE_TEXT),
        (("hecke", "--n", "4", "--format", "records"), HECKE_RECORDS),
    ],
)
def test_verify_sweep_stdout_is_pinned(capsys, argv, expected) -> None:
    assert run(capsys, "verify", *argv) == (0, expected, "")


GROTH_ANCHOR = (
    "the diagrammatic, translation, and matrix transports agree on every "
    "basis class of every one-generator web"
)
GROTH_TEXT = "PASS groth-three-routes-n3-k{k}: " + GROTH_ANCHOR + " [{webs} webs]\n"
GROTH_RECORDS = (
    "check=groth-three-routes-n3-k{k} passed=true anchor='"
    + GROTH_ANCHOR
    + "' witness='{webs} webs'\n"
)


@pytest.mark.parametrize("fmt,template", [("text", GROTH_TEXT), ("records", GROTH_RECORDS)])
@pytest.mark.parametrize("k,webs", [(2, 6), (3, 10), (4, 6)])
def test_verify_groth_stdout_is_pinned(capsys, fmt, template, k, webs) -> None:
    argv = ("verify", "groth", "--n", "3", "--k", str(k), "--format", fmt)
    assert run(capsys, *argv) == (0, template.format(k=k, webs=webs), "")


def test_verify_reports_the_n_cap_before_the_k_floor(capsys) -> None:
    argv = ("verify", "groth", "--n", "8", "--k", "1")
    assert run(capsys, *argv) == (2, "", "error: groth suite needs n <= 7\n")


def test_verify_reports_are_deterministic(capsys) -> None:
    first = run(capsys, "verify", "moy", "--k", "2")
    second = run(capsys, "verify", "moy", "--k", "2")
    assert first == second


def test_verify_exit_one_on_check_failure(capsys, monkeypatch) -> None:
    broken = [Report(check="foam-x", anchor="claim", passed=False)]
    monkeypatch.setattr(verify, "verify_foam", lambda: broken)
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
    ("suite", "limit"), [("bijections", 7), ("hecke", 5), ("groth", 7)]
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


@pytest.mark.parametrize("command", ["rs", "hecke"])
def test_empty_permutation_is_rejected(capsys, command) -> None:
    code, out, err = run(capsys, command, "")
    assert (code, out) == (2, "")
    assert err == "error: permutation must be a one-line word like 2413, got ''\n"


def test_hecke_kl_printout(capsys) -> None:
    code, out, _ = run(capsys, "hecke", "321")
    assert code == 0
    assert out == (
        "H[321]*(1) + H[231]*(q) + H[312]*(q) + H[132]*(q^2)"
        " + H[213]*(q^2) + H[123]*(q^3)\n"
    )


HECKE_STDOUT = dict(
    line.split(" ", 1)
    for line in (Path(__file__).parent / "data" / "hecke_kl_stdout.txt")
    .read_text(encoding="utf-8")
    .splitlines()
)


@pytest.mark.parametrize("permutation", sorted(HECKE_STDOUT))
def test_hecke_printout_is_pinned(capsys, permutation) -> None:
    """Every w in S_4 and the longest element of S_5."""
    assert run(capsys, "hecke", permutation) == (0, HECKE_STDOUT[permutation] + "\n", "")


def test_hecke_identity(capsys) -> None:
    code, out, _ = run(capsys, "hecke", "12")
    assert code == 0
    assert out == "H[12]*(1)\n"


def test_hecke_works_on_the_interval_it_moves(capsys, monkeypatch) -> None:
    # 21345678 moves only 1 and 2: C_w comes from S_2, not from all of S_8
    sizes = []
    group = symhecke._group
    monkeypatch.setattr(symhecke, "_KL_CACHE", {})
    monkeypatch.setattr(symhecke, "_group", lambda n: sizes.append(n) or group(n))
    assert run(capsys, "hecke", "21345678") == (
        0, "H[21345678]*(1) + H[12345678]*(q)\n", ""
    )
    assert sizes and 8 not in sizes


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


def test_fillings_on_a_long_shape_of_zero_columns(capsys) -> None:
    # the enumerator recursed once per column, zero columns included,
    # and raised RecursionError on a shape that sums to 1
    code, out, err = run(capsys, "fillings", "1," + ",".join(["0"] * 1500), "1")
    assert code == 0
    assert err == ""
    assert out == "[1]" + ",[]" * 1500 + "\ntotal 1\n"


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


@pytest.mark.parametrize(
    "argv, source",
    [
        (["rs", ""], None),
        (["hecke", "12x"], None),
        (["fillings", "2,-1", "3"], None),
        (["eval-web"], "web k=3 bottom=\nmerge(9,9@1)\n"),
        (["link-poly"], OPEN_TANGLE),
    ],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, source) -> None:
    if source is not None:
        path = tmp_path / "input.txt"
        path.write_text(source)
        argv = [*argv, "--file", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_closed_stdout_pipe_exits_without_a_traceback() -> None:
    # the reader end is closed before the child writes, so its first
    # flush meets a closed pipe every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(moycalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "moycalc", "verify", "foam", "--k", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_CLOSED_PIPE
    assert done.stderr == b""
