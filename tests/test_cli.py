import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cli_sweep
import kduncert as kd
from kduncert import selftest, serialize
from kduncert.cli import main
from kduncert.errors import DimMismatchError, KdUncertError, ValidationError, WitnessNotFoundError
from kduncert.uncertainty import CORNER_SCAN_MAX_DIM
from conftest import HADAMARD, Y_BASIS


@pytest.fixture()
def fixtures(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(serialize.dumps(obj) + "\n")
        return str(path)

    return {
        "zero": write("zero.json", serialize.matrix_to_json(np.diag([1.0, 0.0]))),
        "plus": write("plus.json", serialize.matrix_to_json(np.full((2, 2), 0.5))),
        "diag34": write("diag34.json", serialize.matrix_to_json(np.diag([0.75, 0.25]))),
        "yplus": write(
            "yplus.json", serialize.matrix_to_json(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
        ),
        "xpovm": write("xpovm.json", serialize.povm_to_json(kd.rank_one_pvm(HADAMARD))),
        "ybasis": write("ybasis.json", serialize.matrix_to_json(Y_BASIS)),
        "ypovm": write("ypovm.json", serialize.povm_to_json(kd.rank_one_pvm(Y_BASIS))),
        "zbasis": write("zbasis.json", serialize.matrix_to_json(np.eye(2))),
        "xbasis": write("xbasis.json", serialize.matrix_to_json(HADAMARD)),
        "badstate": write("badstate.json", serialize.matrix_to_json(np.diag([0.5, 0.6]))),
        "povm3": write("povm3.json", serialize.povm_to_json(kd.random_povm(3, 2, seed=1))),
        "dir": tmp_path,
    }


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_kd_table_summary(capsys, fixtures, derived):
    # the basis as its unitary and as the POVM of its projectors prints the same bytes
    stdouts = []
    for basis in (fixtures["ybasis"], fixtures["ypovm"]):
        assert main(["kd-table", fixtures["zero"], fixtures["xpovm"], basis]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    out = json.loads(stdouts[0])
    expect = [pair for row in derived["kd_zero_x_y"] for pair in row]
    assert np.abs(np.array(out["values"]) - np.array(expect)).max() < 1e-9
    assert abs(out["nonreality"] - derived["nonreality_zero_x_y"]) < 1e-9
    assert abs(out["nonclassicality"] - derived["nonclassicality_zero_x_y"]) < 1e-9
    assert out["n_a"] == 2 and out["n_b"] == 2


def test_kd_table_commuting_zero_summaries(capsys, fixtures):
    code, out = _run(capsys, ["kd-table", fixtures["diag34"], fixtures["zbasis"], fixtures["zbasis"]])
    assert code == 0
    assert abs(out["nonreality"]) < 1e-12
    assert abs(out["nonclassicality"]) < 1e-12


def test_kd_table_validation_exit_codes(capsys, fixtures, tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text("{nope")
    code, _ = _run(capsys, ["kd-table", str(bad), fixtures["xpovm"], fixtures["ybasis"]])
    assert code == 2
    code, _ = _run(capsys, ["kd-table", fixtures["badstate"], fixtures["xpovm"], fixtures["ybasis"]])
    assert code == 2


# files that the decoder, the JSON parser or the float conversion refuses, and the message each one ends in
MALFORMED = {
    "long_int": (
        b'{"d": 1, "re_im": [[' + b"1" * 4301 + b", 0]]}",
        "unreadable JSON (an integer literal has too many digits)",
    ),
    "deep": (b"[" * 100000 + b"]" * 100000, "unreadable JSON (nested too deeply)"),
    "overflow": (b'{"d": 1, "re_im": [[1' + b"0" * 400 + b", 0]]}", "'re_im' entry 0 is out of float range"),
    "long_d": (
        b'{"d": 1' + b"0" * 2200 + b', "re_im": [[1, 0]]}',
        "'re_im' must hold d * d (d has 2201 digits) entries, got 1",
    ),
    "not_utf8": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
}


@pytest.mark.parametrize("subcommand", ["decompose", "kd-table", "bounds", "witness", "infimum"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_json_is_a_validation_error(capsys, fixtures, tmp_path, kind, subcommand):
    content, message = MALFORMED[kind]
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(content + b"\n")
    measurements = {"decompose": 1, "kd-table": 2, "bounds": 1, "witness": 1, "infimum": 0}[subcommand]
    argvs = [[subcommand, str(bad)] + [fixtures["xbasis"]] * measurements]
    if measurements:  # the malformed file in the last measurement slot
        argvs.append([subcommand, fixtures["zero"]] + [fixtures["xbasis"]] * (measurements - 1) + [str(bad)])
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err[:200]
        assert captured.err.endswith(message + "\n"), captured.err[:200]


def test_dim_mismatch_exit_code(capsys, fixtures):
    # a 2-dim state against a 3-dim measurement in every measurement slot of every subcommand
    basis3 = fixtures["dir"] / "basis3.json"
    basis3.write_text(serialize.dumps(serialize.matrix_to_json(np.eye(3))) + "\n")
    zero, povm3, basis3 = fixtures["zero"], fixtures["povm3"], str(basis3)
    for argv in (
        ["kd-table", zero, povm3, fixtures["ybasis"]],
        ["kd-table", zero, fixtures["xpovm"], basis3],
        ["decompose", zero, povm3],
        ["decompose", zero, povm3, "--flavor", "NCl"],
        ["witness", zero, povm3],
        ["bounds", zero, basis3],
        ["bounds", zero, fixtures["zbasis"], basis3],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.out == "", argv
        assert captured.err == "error: state dim 2 != measurement dim 3\n", argv


def test_povm_labels_must_be_a_list_of_strings_or_integers(capsys, fixtures, tmp_path):
    povm = serialize.povm_to_json(kd.rank_one_pvm(HADAMARD))
    for labels in (5, "01", {"a": 1, "b": 2}):
        path = tmp_path / "labels.json"
        path.write_text(serialize.dumps(dict(povm, labels=labels)) + "\n")
        code = main(["kd-table", fixtures["zero"], str(path), fixtures["ybasis"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: povm: field 'labels' must be a list of strings or integers")
        assert "Traceback" not in captured.err
    for labels, expect in ((None, ["0", "1"]), (["up", 7], ["up", "7"])):
        path = tmp_path / "labels.json"
        path.write_text(serialize.dumps(dict(povm, labels=labels)) + "\n")
        assert serialize.povm_from_json(json.loads(path.read_text())).labels == tuple(expect)


def test_povm_labels_must_be_distinct(capsys, fixtures, tmp_path):
    povm = serialize.povm_to_json(kd.rank_one_pvm(HADAMARD))
    path = tmp_path / "labels.json"
    for labels, repeated in ((["x", "x"], "x"), ([1, "1"], "1")):
        path.write_text(serialize.dumps(dict(povm, labels=labels)) + "\n")
        for argv in (["kd-table", fixtures["zero"], str(path), fixtures["ybasis"]], ["witness", fixtures["zero"], str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""
            assert captured.err == f"error: label '{repeated}' names more than one effect\n"


def test_decompose_fixture_and_determinism(capsys, fixtures, derived):
    argv = ["decompose", fixtures["diag34"], fixtures["zbasis"], "--flavor", "NRe"]
    code, out = _run(capsys, argv)
    assert code == 0
    fx = derived["decompose_diag34_z_nre"]
    assert abs(out["total"] - fx["total"]) < 1e-9
    assert abs(out["quantum"] - fx["quantum"]) < 1e-9
    assert abs(out["classical"] - fx["classical"]) < 1e-9

    argv = ["decompose", fixtures["plus"], fixtures["zbasis"], "--flavor", "NCl"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert abs(out["classical"]) < 1e-6  # pure state + rank-1 PVM
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_decompose_ncl_is_the_trace_norm_sum(capsys, fixtures):
    code, out = _run(capsys, ["decompose", fixtures["plus"], fixtures["zbasis"], "--flavor", "NCl"])
    assert code == 0
    assert set(out["diagnostics"]) == {"value", "best_basis", "per_effect_values"}
    rho = np.full((2, 2), 0.5)
    expect = sum(np.linalg.svd(np.diag(e) @ rho, compute_uv=False).sum() for e in np.eye(2)) - 1.0
    assert abs(out["quantum"] - expect) < 1e-12


def test_exit_code_lives_on_the_error_class(capsys, monkeypatch):
    # main ends every library error with its class's exit_code; a subclass without one inherits 5
    assert [c.exit_code for c in (KdUncertError, ValidationError, DimMismatchError, WitnessNotFoundError)] == [
        5, 2, 3, 4,
    ]
    assert selftest.PropertyFailure.exit_code == 5

    class Unmapped(KdUncertError):
        pass

    class OwnCode(KdUncertError):
        exit_code = 7

    for cls, code in ((Unmapped, 5), (OwnCode, 7)):
        def raising(*args, cls=cls):
            raise cls("injected")

        monkeypatch.setattr("kduncert.cli.random_density", raising)
        assert main(["random", "state", "--d", "2"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: injected\n")


def test_removed_search_flags_exit_code(capsys, fixtures):
    # no subcommand takes --max-iters, --rel-tol or --restarts, and only random and selftest take --seed
    st, pv, xb = fixtures["plus"], fixtures["zbasis"], fixtures["xbasis"]
    cases = [
        (["decompose", st, pv, "--flavor", "NCl", "--max-iters", "5"], "--max-iters"),
        (["decompose", st, pv, "--rel-tol", "1e-8"], "--rel-tol"),
        (["decompose", st, pv, "--restarts", "2"], "--restarts"),
        (["decompose", st, pv, "--seed", "1"], "--seed"),
        (["bounds", st, pv, "--restarts", "2"], "--restarts"),
        (["bounds", st, pv, xb, "--seed", "1"], "--seed"),
        (["infimum", st, "--seed", "1"], "--seed"),
        (["kd-table", st, pv, xb, "--seed", "1"], "--seed"),
        (["witness", st, pv, "--max-iters", "5"], "--max-iters"),
        (["witness", st, pv, "--restarts", "2"], "--restarts"),
        (["witness", st, pv, "--seed", "1"], "--seed"),
        (["selftest", "--rel-tol", "1e-8"], "--rel-tol"),
    ]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert captured.out == ""
        assert flag in captured.err


def test_negative_seed_exit_code(capsys):
    argvs = [
        ["random", "state", "--d", "2", "--seed", "-1"],
        ["selftest", "--dims", "1", "--samples", "1", "--seed", "-2"],
    ]
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error: --seed must be >= 0")


def test_witness_cli_rejects_bad_threshold(capsys, fixtures):
    for bad in ("nan", "inf", "-0.5"):
        code = main(["witness", fixtures["zero"], fixtures["xpovm"], "--threshold", bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: threshold")


def test_witness_cli(capsys, fixtures, derived):
    code, out = _run(capsys, ["witness", fixtures["zero"], fixtures["xpovm"]])
    assert code == 0
    assert out["contextual"] is True
    # the entry sits in a margin eigenbasis: the fixture's (1 - i) / 2 at |y+> tilted by the threshold t,
    # 1/2 - i (sqrt(t^2 + 1/4) - t) (see test_witness.py::test_witness_fixture)
    fx = derived["weak_value_zero_xplus_yplus"]
    t = out["threshold"]
    assert abs(out["witness"]["weak_value"][0] - fx[0]) < 1e-9
    assert abs(out["witness"]["weak_value"][1] - (t - np.sqrt(t * t + 0.25))) < 1e-9
    # the postselection vector is (i/4, (t - s) / 2) up to phase, with s = sqrt(t^2 + 1/4)
    col = serialize.matrix_from_json(out["witness"]["basis"])[:, out["witness"]["b"]]
    v = np.array([0.25j, 0.5 * (t - np.sqrt(t * t + 0.25))])
    assert abs(abs(np.vdot(v / np.linalg.norm(v), col)) - 1.0) < 1e-9

    code, out = _run(capsys, ["witness", fixtures["diag34"], fixtures["zbasis"]])
    assert code == 0
    assert out["contextual"] is False and out["witness"] is None

    code, out = _run(
        capsys,
        ["witness", fixtures["zero"], fixtures["xpovm"], "--threshold", "1e30"],
    )
    assert code == 0
    assert out["contextual"] is False


def test_witness_flavors_agree_at_a_raised_threshold(capsys, tmp_path):
    # both quantum parts are far from zero, so they agree although only nre exceeds the threshold
    state = tmp_path / "state.json"
    povm = tmp_path / "povm.json"
    state.write_text(serialize.dumps(serialize.matrix_to_json(kd.random_density(2, 1, seed=1).matrix)))
    povm.write_text(serialize.dumps(serialize.povm_to_json(kd.random_povm(2, 2, seed=101))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(capsys, ["witness", str(state), str(povm), "--threshold", "0.3"])
    assert code == 0
    assert out["nre"] > 0.3 > out["ncl"] > 1e-7
    assert out["contextual"] is True and out["flavors_agree"] is True


def test_infimum_cli(capsys, fixtures, derived):
    code, out = _run(capsys, ["infimum", fixtures["zero"], "--flavor", "NRe"])
    assert code == 0
    assert abs(out["value"]) < 1e-7

    code, out = _run(capsys, ["infimum", fixtures["diag34"], "--flavor", "NCl"])
    assert code == 0
    assert abs(out["value"] - derived["impurity_t_diag34"]) < 1e-9
    povm = serialize.povm_from_json(out["achieving_povm"])
    state = serialize.density_from_json(json.load(open(fixtures["diag34"])))
    assert abs(kd.total_uncertainty(state, povm, kd.Flavor.NCL) - out["value"]) < 1e-9


def test_infimum_maximally_mixed(capsys, tmp_path):
    path = tmp_path / "mixed4.json"
    path.write_text(serialize.dumps(serialize.matrix_to_json(np.eye(4) / 4)) + "\n")
    code, out = _run(capsys, ["infimum", str(path), "--flavor", "NRe"])
    assert code == 0
    assert abs(out["value"] - np.sqrt(3)) < 1e-9


def test_bounds_cli(capsys, fixtures, derived):
    code, out = _run(capsys, ["bounds", fixtures["plus"], fixtures["zbasis"]])
    assert code == 0
    assert abs(out["asymmetry_bound"] - 1.0) < 1e-9
    assert abs(out["s_entropy"] - 1.0) < 1e-9

    code, out = _run(
        capsys,
        ["bounds", fixtures["yplus"], fixtures["zbasis"], fixtures["xbasis"]],
    )
    assert code == 0
    assert abs(out["relation_bound"] - derived["relation_bound_yplus_z_x"]) < 1e-9
    assert abs(out["s_sum"] - 2.0) < 1e-9

    code, out = _run(capsys, ["bounds", fixtures["diag34"], fixtures["zbasis"]])
    assert code == 0
    assert abs(out["asymmetry_bound"]) < 1e-10


def test_bounds_rejects_measurements_that_are_not_rank_one_pvms(capsys, fixtures):
    def write(name, povm):
        path = fixtures["dir"] / name
        path.write_text(serialize.dumps(serialize.povm_to_json(povm)) + "\n")
        return str(path)

    three = write("povm2x3.json", kd.random_povm(2, 3, seed=2))
    soft = write("povm2x2.json", kd.random_povm(2, 2, seed=3))
    cases = [
        (["bounds", fixtures["plus"], three], "pvm: expected a rank-1 PVM, got 3 effects in dim 2"),
        (["bounds", fixtures["plus"], soft], "pvm: expected a rank-1 PVM, got 2 effects in dim 2"),
        (["bounds", fixtures["plus"], fixtures["zbasis"], soft], "pvm2: expected a rank-1 PVM"),
    ]
    for argv, message in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.strip().splitlines()) == 1


def test_bounds_reads_a_pvm_given_as_effects(capsys, tmp_path):
    # the effect form of a basis goes through the rank-1 PVM recognizer and gives the basis form's output
    def write(name, obj):
        path = tmp_path / name
        path.write_text(serialize.dumps(obj) + "\n")
        return str(path)

    state = write("state3.json", serialize.matrix_to_json(kd.random_density(3, 2, seed=5).matrix))
    argv = {"basis": ["bounds", state], "effects": ["bounds", state]}
    for seed in (6, 7):
        u = kd.haar_random_unitary(3, seed=seed)
        argv["basis"].append(write(f"basis{seed}.json", serialize.matrix_to_json(u)))
        argv["effects"].append(write(f"effects{seed}.json", serialize.povm_to_json(kd.rank_one_pvm(u))))
    code, from_basis = _run(capsys, argv["basis"])
    assert code == 0
    code, from_effects = _run(capsys, argv["effects"])
    assert code == 0
    assert from_effects.keys() == from_basis.keys()
    for key, value in from_basis.items():
        assert abs(from_effects[key] - value) < 1e-12, key


def test_bounds_takes_projectors_that_validation_accepts(capsys, tmp_path):
    # the projectors of a Haar basis perturbed by 1e-10 pass validation, and the rank-1 PVM recognizer
    # certifies their eigenvectors orthonormal within 1e-8; here those deviate by 2.2e-10 > HERM_ATOL
    u = kd.haar_random_unitary(3, seed=2)
    rng = np.random.default_rng(2)
    v = u + 1e-10 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    paths = {
        "state": serialize.matrix_to_json(kd.random_density(3, 3, seed=2).matrix),
        "effects": serialize.povm_to_json(kd.validate_povm([np.outer(v[:, b], v[:, b].conj()) for b in range(3)])),
        "basis": serialize.matrix_to_json(u),
    }
    for name, obj in paths.items():
        (tmp_path / name).write_text(serialize.dumps(obj) + "\n")
        paths[name] = str(tmp_path / name)
    code, perturbed = _run(capsys, ["bounds", paths["state"], paths["effects"], paths["effects"]])
    assert code == 0
    code, exact = _run(capsys, ["bounds", paths["state"], paths["basis"], paths["basis"]])
    assert code == 0
    for key, value in exact.items():
        assert abs(perturbed[key] - value) < 1e-8, key


def test_random_cli_deterministic(capsys):
    code, a = _run(capsys, ["random", "state", "--d", "3", "--rank", "2", "--seed", "5"])
    assert code == 0
    kd.validate_density(serialize.matrix_from_json(a))
    code, b = _run(capsys, ["random", "state", "--d", "3", "--rank", "2", "--seed", "5"])
    assert a == b
    code, povm = _run(capsys, ["random", "povm", "--d", "2", "--outcomes", "3", "--seed", "1"])
    assert code == 0
    serialize.povm_from_json(povm)
    code, pvm = _run(capsys, ["random", "pvm", "--d", "2", "--seed", "1"])
    assert code == 0
    kd.rank_one_pvm(serialize.matrix_from_json(pvm))


def test_random_bad_dimension_exit_code(capsys):
    for kind in ("state", "povm", "pvm"):
        for d in ("0", "-1"):
            code = main(["random", kind, "--d", d])
            captured = capsys.readouterr()
            assert code == 2, (kind, d)
            assert captured.out == ""
            assert captured.err == f"error: --d must be >= 1, got {d}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["random", "povm", "--d", "2", "--outcomes", "0"], "--outcomes must be >= 1, got 0"),
        (["random", "state", "--d", "3", "--rank", "4"], "--rank must be in [1, 3], got 4"),
        (["random", "state", "--d", "3", "--rank", "0"], "--rank must be in [1, 3], got 0"),
        (["random", "state", "--d", "0", "--rank", "1"], "--d must be >= 1, got 0"),
        (["random", "povm", "--d", "0", "--outcomes", "0"], "--d must be >= 1, got 0"),
    ],
    ids=["outcomes_0", "rank_above_d", "rank_0", "d_0_before_rank", "d_0_before_outcomes"],
)
def test_random_povm_without_outcomes_exit_code(capsys, argv, message):
    # each flag is named as the user wrote it; the library keeps its own parameter names
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "slot, obj, message",
    [
        ("state", {"d": "1", "re_im": [[1.0, 0.0]]}, "state: field 'd' must be an integer"),
        ("state", {"d": True, "re_im": [[1.0, 0.0]]}, "state: field 'd' must be an integer"),
        ("state", {"d": 2, "re_im": {}}, "state: field 're_im' must be a list"),
        ("povm", {"d": 2, "effects": {}}, "povm: field 'effects' must be a list"),
    ],
    ids=["d_str", "d_bool", "re_im_dict", "effects_dict"],
)
def test_json_field_of_the_wrong_type_exit_code(capsys, fixtures, slot, obj, message):
    path = fixtures["dir"] / "typed.json"
    path.write_text(json.dumps(obj) + "\n")
    argv = ["infimum", str(path)] if slot == "state" else ["witness", fixtures["zero"], str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_seed_defaults_to_zero(capsys):
    for argv in (
        ["random", "state", "--d", "3"],
        ["random", "povm", "--d", "3", "--outcomes", "3"],
        ["random", "pvm", "--d", "3"],
        ["selftest", "--samples", "1"],
    ):
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main(argv + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == default_out, argv
        assert main(argv + ["--seed", "1"]) == 0
        assert capsys.readouterr().out != default_out, argv


@pytest.mark.parametrize("env", ["11", "-5", "x"])
def test_seed_reads_no_environment_variable(capsys, monkeypatch, env):
    # no environment variable reaches the seed: stdout depends only on the argv
    monkeypatch.setenv("KDUNCERT_SEED", env)
    for argv in (["random", "state", "--d", "3"], ["selftest", "--samples", "1"]):
        assert main(argv) == 0, argv
        default_out = capsys.readouterr().out
        assert main(argv + ["--seed", "0"]) == 0, argv
        assert capsys.readouterr().out == default_out, argv


def test_stdin_input(capsys, fixtures, monkeypatch):
    import io

    state_text = open(fixtures["diag34"]).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(state_text))
    code, out = _run(capsys, ["infimum", "-", "--flavor", "NRe"])
    assert code == 0
    assert abs(out["value"] - np.sqrt(3) / 2) < 1e-9


def test_output_file(capsys, fixtures, tmp_path):
    out_path = tmp_path / "out.json"
    code = main(["infimum", fixtures["zero"], "--flavor", "NRe", "-o", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    json.loads(out_path.read_text())


def _real(rows):
    return serialize.matrix_to_json(np.array(rows, dtype=float))


# inputs at the edge of float range or of the file system, and the one error line each ends in
BOUNDARY = {
    "output_dir_missing": (
        lambda f: ["random", "state", "--d", "2", "-o", str(f["dir"] / "missing" / "x.json")],
        "cannot write {dir}/missing/x.json: ",
    ),
    "basis_overflow": (
        lambda f: ["bounds", f["plus"], f["huge_basis"]],
        "basis is not unitary: max |U^dag U - I| = inf",
    ),
    "effect_overflow": (
        lambda f: ["decompose", f["plus"], f["huge_povm"]],
        "effects do not resolve identity: max |sum - I| = 1.000e+308",
    ),
    "effect_eigenvalues_diverge": (
        lambda f: ["kd-table", f["mixed3"], f["diverging_povm"], f["diverging_povm"]],
        "effect 0 is not PSD: min eigenvalue -6.180e+307",
    ),
    "state_eigenvalues_diverge": (
        lambda f: ["infimum", f["diverging_state"]],
        "state is not PSD: min eigenvalue -1.000e+308",
    ),
    # 0.5 * (m + m^dag) of these overflows to inf; the Hermitian part must be halved before it is summed
    "state_hermitian_part_overflow": (
        lambda f: ["kd-table", f["overflow_state"], f["zbasis"], f["zbasis"]],
        "state is not PSD: min eigenvalue -1.000e+308",
    ),
    "effect_hermitian_part_overflow_decompose": (
        lambda f: ["decompose", f["mixed2"], f["overflow_povm"]],
        "effect 0 is not PSD: min eigenvalue -1.000e+308",
    ),
    "effect_hermitian_part_overflow_witness": (
        lambda f: ["witness", f["plus"], f["overflow_povm"]],
        "effect 0 is not PSD: min eigenvalue -1.000e+308",
    ),
    # an off-diagonal entry whose modulus overflows gives a NaN least eigenvalue, even halved
    "state_eigenvalue_nan": (
        lambda f: ["kd-table", f["nan_state"], f["zbasis"], f["zbasis"]],
        "state is not PSD: min eigenvalue nan",
    ),
    "effect_eigenvalue_nan": (
        lambda f: ["decompose", f["mixed2"], f["nan_povm"]],
        "effect 0 is not PSD: min eigenvalue nan",
    ),
    # U^dag U of this basis overflows to inf - inf, so its deviation from I is NaN
    "basis_nan_decompose": (
        lambda f: ["decompose", f["plus"], f["nan_basis"]],
        "basis is not unitary: max |U^dag U - I| = nan",
    ),
    "basis_nan_bounds": (
        lambda f: ["bounds", f["plus"], f["nan_basis"]],
        "basis is not unitary: max |U^dag U - I| = nan",
    ),
    "basis_nan_witness": (
        lambda f: ["witness", f["plus"], f["nan_basis"]],
        "basis is not unitary: max |U^dag U - I| = nan",
    ),
    "basis_nan_kd_table": (
        lambda f: ["kd-table", f["plus"], f["nan_basis"], f["zbasis"]],
        "basis is not unitary: max |U^dag U - I| = nan",
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_boundary_input_ends_in_one_error_line(capsys, fixtures, case):
    big = complex(np.finfo(float).max, np.finfo(float).max)
    inputs = {
        "huge_basis": _real([[1e200, 0], [0, 1e200]]),
        "huge_povm": serialize.povm_to_json(kd.Povm(np.array([np.diag([1e308, 0.5]), np.eye(2) / 2]), ("0", "1"))),
        "mixed3": _real(np.eye(3) / 3),
        "diverging_povm": serialize.povm_to_json(
            kd.Povm(np.array([[[1e308, 1e308, 0], [1e308, 0, 0], [0, 0, 0]], np.eye(3)], dtype=complex), ("0", "1"))
        ),
        "diverging_state": _real([[1 / 3, 1e308, 0], [1e308, 1 / 3, 0], [0, 0, 1 / 3]]),
        "mixed2": _real(np.eye(2) / 2),
        "overflow_state": _real([[0.5, 1e308], [1e308, 0.5]]),
        "overflow_povm": serialize.povm_to_json(
            kd.Povm(np.array([[[0.5, x], [x, 0.5]] for x in (1e308, -1e308)], dtype=complex), ("0", "1"))
        ),
        "nan_state": serialize.matrix_to_json(np.array([[0.5, big], [np.conj(big), 0.5]])),
        "nan_povm": serialize.povm_to_json(
            kd.Povm(np.array([[[0.5, z], [np.conj(z), 0.5]] for z in (big, -big)]), ("0", "1"))
        ),
        "nan_basis": serialize.matrix_to_json(
            np.array([[-1.79e308j, 1 + 1.79e308j], [1e308 + 1.79e308j, -1.79e308 + 1.79e308j]])
        ),
    }
    for name, obj in inputs.items():
        path = fixtures["dir"] / f"{name}.json"
        path.write_text(serialize.dumps(obj) + "\n")
        fixtures[name] = str(path)
    argv, message = BOUNDARY[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv(fixtures))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith("error: " + message.format(dir=fixtures["dir"])), captured.err


@pytest.mark.parametrize(
    "argv, name", [(["random", "state", "--d", "2"], "state"), (["random", "povm", "--d", "2"], "effect")]
)
def test_eigenvalues_that_do_not_converge_end_in_one_error_line(capsys, monkeypatch, argv, name):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {name} eigenvalues did not converge, so positivity cannot be checked\n"


def test_memory_exhaustion_ends_in_one_error_line(capsys, monkeypatch):
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type complex128"

    def exhaust(d, seed):
        raise MemoryError(message)

    monkeypatch.setattr("kduncert.cli.haar_random_unitary", exhaust)
    code = main(["random", "pvm", "--d", "100000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: out of memory: {message}\n"


def test_selftest_smoke_and_injection(capsys, monkeypatch):
    code = main(["selftest", "--dims", "2", "--samples", "1"])
    err = capsys.readouterr()
    assert code == 0
    out = json.loads(err.out)
    assert out["passed"] is True
    assert {r["name"] for r in out["results"]} == {
        "core.partial_trace_tensor",
        "kd.marginals",
        "kd.diagonal_eigenvalues",
        "kd.johansen_reconstruction",
        "opt.variational_trace_norm",
        "opt.mixing_convexity",
        "opt.partial_access_monotone",
        "opt.coarsegrain_monotone",
        "opt.ncl_attaining_basis",
        "unc.quantum_bounded_by_total",
        "unc.commuting_entirely_classical",
        "unc.classical_concavity",
        "unc.permutation_invariance",
        "unc.decomposition_covariance",
        "unc.maximal_trichotomy",
        "unc.coherence_faithfulness",
        "unc.infimum_impurity",
        "unc.asymmetry_bound",
        "unc.entropic_relation",
        "wit.factorization",
        "wit.weak_value_integrands",
        "wit.contextuality_consistency",
        "wit.disturbance_identity",
    }
    assert len(out["results"]) == 23

    def broken(dims, samples, seed):
        raise selftest.PropertyFailure("injected failure")

    monkeypatch.setattr(
        selftest,
        "PROPERTIES",
        tuple((name, broken if name == "kd.marginals" else fn) for name, fn in selftest.PROPERTIES),
    )
    code = main(["selftest", "--dims", "2", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 1
    out = json.loads(captured.out)
    assert out["passed"] is False
    assert "kd.marginals" in out["failed"]
    assert "FAIL kd.marginals" in captured.err


def test_selftest_property_that_raises_is_a_fail_row(capsys, monkeypatch):
    original = selftest.PROPERTIES

    def with_raising(exc):
        def prop(dims, samples, seed):
            raise exc

        return tuple((name, prop if name == "opt.variational_trace_norm" else fn) for name, fn in original)

    monkeypatch.setattr(selftest, "PROPERTIES", with_raising(np.linalg.LinAlgError("SVD did not converge")))
    code = main(["selftest", "--dims", "2", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 1
    out = json.loads(captured.out)
    assert "opt.variational_trace_norm" in out["failed"]
    assert [r["name"] for r in out["results"]] == [name for name, _ in original]
    assert "FAIL opt.variational_trace_norm: raised LinAlgError: SVD did not converge\n" in captured.err
    assert captured.err.count("\n") == len(original)

    # running out of memory is no property's failure: the run ends as every subcommand's does
    monkeypatch.setattr(selftest, "PROPERTIES", with_raising(MemoryError("Unable to allocate 8.00 EiB")))
    code = main(["selftest", "--dims", "2", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 8.00 EiB\n"


def test_selftest_bad_dims_exit_code(capsys):
    for bad in ("x", "2,,3", "", "0", "2,-1"):
        code = main(["selftest", "--dims", bad, "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --dims")
        assert len(captured.err.strip().splitlines()) == 1


def test_selftest_samples_below_one_exit_code(capsys):
    for bad in ("0", "-2"):
        code = main(["selftest", "--dims", "2", "--samples", bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --samples")
        assert len(captured.err.strip().splitlines()) == 1


def test_infimum_failed_self_check_is_a_named_error(capsys, fixtures, monkeypatch):
    # each of infimum_total's two self-checks, forced to fail in turn
    for patched, value, message in (
        ("total_uncertainty", 0.5, "error: eigenbasis measurement scores"),
        ("quantum_nonreality", 1e-6, "error: achieving POVM has nonzero quantum part 1e-06"),
    ):
        with monkeypatch.context() as m:
            m.setattr(f"kduncert.uncertainty.{patched}", lambda *args, v=value: v)
            code = main(["infimum", fixtures["diag34"], "--flavor", "NRe"])
        captured = capsys.readouterr()
        assert code == 5, patched
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


def test_bounds_failed_check_is_an_internal_error(capsys, fixtures, monkeypatch):
    monkeypatch.setattr("kduncert.cli.bound_asymmetry", lambda *args: 2.0)
    code = main(["bounds", fixtures["plus"], fixtures["zbasis"]])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: asymmetry bound")
    assert len(captured.err.strip().splitlines()) == 1


def test_bounds_above_corner_cap_exit_code(capsys, fixtures):
    d = CORNER_SCAN_MAX_DIM + 1
    state = fixtures["dir"] / "mixed.json"
    state.write_text(serialize.dumps(serialize.matrix_to_json(np.eye(d) / d)) + "\n")
    basis = fixtures["dir"] / "basis.json"
    basis.write_text(serialize.dumps(serialize.matrix_to_json(np.eye(d))) + "\n")
    for argv in (["bounds", str(state), str(basis)], ["bounds", str(state), str(basis), str(basis)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bound_asymmetry scans all 2^(d-1) sign corners")
        assert f"d <= {CORNER_SCAN_MAX_DIM}, got d = {d}" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


def test_cli_import_leaves_selftest_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kd.__file__)))
    code = "import sys, kduncert.cli; print('kduncert.selftest' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_sweep_ends_in_no_traceback_and_no_warning(tmp_path):
    # every argv of tests/cli_sweep.py: no exception escapes main, no "Category: message" warning line
    argvs = cli_sweep._argvs(cli_sweep._inputs(str(tmp_path)))
    for argv in argvs:
        code, _, err = cli_sweep._run(argv)
        assert not str(code).startswith("traceback:"), (argv, code)
        assert not [line for line in err.splitlines() if re.match(r"[A-Z]\w*: ", line)], (argv, err)
