import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from freesym import cumulants, serialize
from freesym.cli import main
from freesym.distributions import CumulantSpecSingle
from freesym.errors import SchemaError
from freesym.fixtures import fixture_set, permutation_rep, uncorrected_bistochastic_unitary_rep
from freesym.partitions import MAX_NONCROSSING_SIZE, MAX_PARTITION_SIZE
from freesym.qgroups import all_family_tags, check_biunitary


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--out", str(out)]) == 0
    return out


def test_pair_codec():
    assert serialize.complex_to_pair(1.5 - 2j) == [1.5, -2.0]
    assert serialize.pair_to_complex([1.5, -2.0]) == 1.5 - 2j
    for bad in ([1.0], [1.0, 2.0, 3.0], ["a", 0.0], [True, 0.0], 7):
        with pytest.raises(SchemaError):
            serialize.pair_to_complex(bad)
    with pytest.raises(SchemaError):
        serialize.pair_to_complex([float("nan"), 0.0])


def test_rep_round_trips_are_bit_exact():
    for name, (rep, _) in fixture_set().reps.items():
        text = serialize.dumps(serialize.rep_to_json(rep))
        again = serialize.json_to_rep(json.loads(text))
        assert serialize.dumps(serialize.rep_to_json(again)) == text, name
        assert np.array_equal(again.entries, rep.entries)


def test_spec_round_trips_are_bit_exact():
    for name, spec in fixture_set().specs.items():
        text = serialize.dumps(serialize.spec_to_json(spec))
        again = serialize.json_to_spec(json.loads(text))
        assert serialize.dumps(serialize.spec_to_json(again)) == text, name


def test_matrix_spec_round_trip():
    spec = CumulantSpecSingle(
        order=2,
        dim=2,
        entries={"1*": np.array([[1.0, 0.25j], [-0.25j, 0.5]])},
    )
    text = serialize.dumps(serialize.spec_to_json(spec))
    again = serialize.json_to_spec(json.loads(text))
    assert serialize.dumps(serialize.spec_to_json(again)) == text
    assert again.dim == 2


def test_biunitarity_gate_on_load(tmp_path):
    bad = uncorrected_bistochastic_unitary_rep(3)
    path = tmp_path / "bad.json"
    serialize.save_rep(bad, path)
    with pytest.raises(SchemaError, match="not biunitary"):
        serialize.load_rep(path)
    loose = serialize.load_rep(path, require_biunitary=False)
    assert check_biunitary(loose).residual == pytest.approx(3.0, abs=1e-12)


def test_schema_rejections(tmp_path):
    cases = [
        {"n": 2, "d": 1},  # missing entries
        {"n": 2, "d": 1, "entries": [[]]},  # wrong row count
        {"order": 2, "entries": [{"pattern": "1x", "value": [0, 0]}]},
        {"order": 2, "entries": [{"pattern": "1", "value": [0, 0]},
                                 {"pattern": "1", "value": [1, 0]}]},
        {"order": 0, "entries": [{"pattern": "1", "value": [1, 0]}]},
    ]
    for obj in cases:
        with pytest.raises(SchemaError):
            if "order" in obj:
                serialize.json_to_spec(obj)
            else:
                serialize.json_to_rep(obj)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(SchemaError):
        serialize.load_spec(garbled)


_ONE = [[[[[1.0, 0.0]]]]]  # the entries of a 1x1 identity model

# (model or spec, file content, error message): the schema checks of a file
# that test_schema_rejections leaves out
_SCHEMA_CASES = [
    ("model", [1, 2], "representation file must hold a JSON object"),
    ("model", {"n": "1", "d": 1, "entries": _ONE}, "bad type for key 'n'"),
    ("model", {"n": True, "d": 1, "entries": _ONE}, "bad type for key 'n'"),
    ("model", {"n": 1, "d": 1, "entries": {}}, "bad type for key 'entries'"),
    ("model", {"n": 1, "d": 1, "tol": "1e-9", "entries": _ONE}, "bad type for key 'tol'"),
    ("model", {"n": 1, "d": 1, "tol": False, "entries": _ONE}, "bad type for key 'tol'"),
    ("model", {"n": 0, "d": 1, "entries": []}, "n and d must be positive"),
    ("model", {"n": 1, "d": -1, "entries": _ONE}, "n and d must be positive"),
    ("model", {"n": 1, "d": 1, "entries": [[]]}, "expected 1 entries in row 0"),
    ("model", {"n": 1, "d": 1, "entries": [[[]]]}, "expected 1 matrix rows"),
    ("model", {"n": 1, "d": 1, "entries": [[[[]]]]}, "expected 1 entries per matrix row"),
    ("model", {"n": 1, "d": 1, "tol": -1.0, "entries": _ONE}, "tolerance must be nonnegative"),
    ("model", "{not json", "invalid JSON"),
    ("spec", [], "spec file must hold a JSON object"),
    ("spec", {"order": 2.0, "entries": []}, "bad type for key 'order'"),
    ("spec", {"order": 2, "dim": "2", "entries": []}, "bad type for key 'dim'"),
    ("spec", {"order": 2, "selfadjoint": 1, "entries": []}, "bad type for key 'selfadjoint'"),
    ("spec", {"order": 2, "entries": [["1", [1.0, 0.0]]]}, "each entry must be an object"),
    ("spec", {"order": 2, "entries": [{"pattern": 1, "value": [1.0, 0.0]}]}, "bad type for key 'pattern'"),
    ("spec", {"order": 2, "entries": [{"pattern": "1"}]}, "missing key 'value'"),
    ("spec", {"order": 2, "dim": 2, "entries": [{"pattern": "1", "value": [[1.0, 0.0]]}]},
     "expected 2 matrix rows"),
    ("spec", {"order": 2, "entries": [{"pattern": "111", "value": [1.0, 0.0]}]}, "outside order bound 2"),
]


@pytest.mark.parametrize("kind, content, message", _SCHEMA_CASES)
def test_every_schema_check_of_a_file(tmp_path, capsys, kind, content, message):
    """Each check raises its SchemaError, and the CLI exits 2 with one error line and no traceback."""
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    load, args = ((serialize.load_rep, ["check-rep", str(path)]) if kind == "model"
                  else (serialize.load_spec, ["classify-dist", str(path), "--free"]))
    with pytest.raises(SchemaError, match=message):
        load(path)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


def _rotation_with_tol(fx, tmp_path, text: str):
    """fx/rotation.json with its "tol" written as text (Infinity, NaN, ...)."""
    obj = json.loads((fx / "rotation.json").read_text())
    obj["tol"] = "TOL"
    path = tmp_path / "rotation_tol.json"
    path.write_text(json.dumps(obj).replace('"TOL"', text))
    return path


@pytest.mark.parametrize("text", ["Infinity", "1e400", "1" + "0" * 400], ids=["Infinity", "1e400", "10^400"])
def test_an_infinite_tolerance_is_a_schema_error(fx, tmp_path, capsys, text):
    """Python's json reads Infinity, and 1e400 as infinity; with it every
    family would hold and the O_PLUS rotation witness would read as minimal
    S_PLUS.  An integer past the floats raised OverflowError."""
    path = _rotation_with_tol(fx, tmp_path, text)
    with pytest.raises(SchemaError, match="tolerance must be nonnegative and finite, got"):
        serialize.load_rep(path)
    for command in ("lattice-position", "check-rep"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tolerance must be nonnegative and finite" in err and "Traceback" not in err


def test_a_nan_tolerance_is_a_schema_error_with_or_without_the_biunitarity_gate(fx, tmp_path, capsys):
    """NaN was refused only because the gate's comparison failed, and loading
    without the gate accepted it."""
    path = _rotation_with_tol(fx, tmp_path, "NaN")
    for gate in (True, False):
        with pytest.raises(SchemaError, match="tolerance must be nonnegative and finite, got nan"):
            serialize.load_rep(path, require_biunitary=gate)
    assert main(["lattice-position", str(path)]) == 2
    assert "not biunitary" not in capsys.readouterr().err


def test_nan_spec_is_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"order": 2, "entries": [{"pattern": "1", "value": [NaN, 0.0]}]}'
    )
    with pytest.raises(SchemaError):
        serialize.load_spec(path)
    assert main(["classify-dist", str(path), "--free"]) == 2


def test_enumerate_command(capsys):
    assert main(["enumerate", "--nc", "4"]) == 0
    assert capsys.readouterr().out.strip() == "14"
    assert main(["enumerate", "--all", "4"]) == 0
    assert capsys.readouterr().out.strip() == "15"
    assert main(["enumerate", "--nc", "3", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "5" and len(lines) == 6
    assert main(["enumerate"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "--nc", "3", "--all", "3"]) == 2
    capsys.readouterr()
    for flag, bound in (("--nc", MAX_NONCROSSING_SIZE), ("--all", MAX_PARTITION_SIZE)):
        assert main(["enumerate", flag, str(bound + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_unknown_flags_exit_two(capsys):
    assert main(["enumerate", "--bogus"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_check_rep_command(fx, capsys):
    assert main(["check-rep", str(fx / "rotation.json"), "--family", "O_PLUS"]) == 0
    assert "holds" in capsys.readouterr().out
    assert main(["check-rep", str(fx / "rotation.json"), "--family", "B_S_PLUS"]) == 1
    capsys.readouterr()
    assert main(["check-rep", str(fx / "rotation.json"), "--family", "NOPE"]) == 2
    capsys.readouterr()
    assert main(["check-rep", str(fx / "sign_diag.json"), "--mmax", "6", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "H_S_PLUS" in report["satisfied"]
    assert "H_M_PLUS(4)" in report["satisfied"]
    assert "H_M_PLUS(3)" not in report["satisfied"]


def test_classify_command(fx, capsys):
    assert main(["classify-dist", str(fx / "haar_unitary.json"), "--free"]) == 0
    out = capsys.readouterr().out
    assert "minimal: R_DIAGONAL" in out
    assert main(
        ["classify-dist", str(fx / "spec_semicircular.json"), "--classical", "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["minimal"] == ["GAUSSIAN"]


def test_convert_command(fx, capsys):
    path = str(fx / "spec_semicircular.json")
    assert main(["convert", path, "--free", "--to-moments"]) == 0
    free = json.loads(capsys.readouterr().out)
    values = {rec["pattern"]: rec["value"] for rec in free["entries"]}
    assert values["1111"] == [2.0, 0.0]
    assert values["11"] == [1.0, 0.0]
    assert values["1"] == [0.0, 0.0]

    assert main(["convert", path, "--classical", "--to-moments"]) == 0
    classical = json.loads(capsys.readouterr().out)
    values = {rec["pattern"]: rec["value"] for rec in classical["entries"]}
    assert values["1111"] == [3.0, 0.0]

    # a shift has no meaning when the file already holds moments
    shifted = str(fx / "spec_shifted_orthogonal.json")
    assert main(["convert", shifted, "--free", "--to-cumulants"]) == 2
    capsys.readouterr()


def test_convert_inverts_moments(fx, tmp_path, capsys):
    path = tmp_path / "moments.json"
    path.write_text(
        serialize.dumps(
            {
                "order": 4,
                "selfadjoint": True,
                "entries": [
                    {"pattern": "11", "value": [1.0, 0.0]},
                    {"pattern": "1111", "value": [2.0, 0.0]},
                ],
            }
        )
    )
    assert main(["convert", str(path), "--free", "--to-cumulants"]) == 0
    out = json.loads(capsys.readouterr().out)
    values = {rec["pattern"]: rec["value"] for rec in out["entries"]}
    assert values["11"] == [1.0, 0.0]
    assert values["1111"] == [0.0, 0.0]


def test_convert_rejects_matrix_input(tmp_path, capsys):
    spec = CumulantSpecSingle(
        order=2, dim=2, entries={"11": np.array([[1.0, 0.0], [0.0, 1.0]])}
    )
    path = tmp_path / "matrix.json"
    serialize.save_spec(spec, path)
    assert main(["convert", str(path), "--free", "--to-moments"]) == 2
    capsys.readouterr()


def test_a_spec_of_dim_zero_exits_two_with_one_error_line(fx, tmp_path, capsys):
    """It used to end in a TypeError traceback (exit 1) in every command that reads a spec."""
    path = tmp_path / "dim0.json"
    path.write_text('{"order": 2, "dim": 0, "entries": [{"pattern": "1", "value": []}]}')
    with pytest.raises(SchemaError, match="dim must be at least 1, got 0"):
        serialize.load_spec(path)
    for args in (["classify-dist", str(path), "--free"], ["convert", str(path), "--free", "--to-moments"],
                 ["check-invariance", "--dist", str(path), "--rep", str(fx / "rotation.json")]):
        assert main(args) == 2, args
        assert capsys.readouterr() == ("", "error: dim must be at least 1, got 0\n"), args


def test_overflowing_moments_exit_two_with_one_error_line(fx, tmp_path, capsys):
    """kappa_4 = 1e300 overflows the order-4 moments: the scan and the
    conversion refuse them, and numpy's overflow warnings are not printed."""
    path = tmp_path / "overflow.json"
    serialize.save_spec(CumulantSpecSingle(order=4, entries={"11": 1e160, "1111": 1e300}, selfadjoint=True), path)
    cases = [(["check-invariance", "--dist", str(path), "--rep", str(fx / "rotation.json")],
              "error: order 4 moments are not finite\n"),
             (["convert", str(path), "--free", "--to-moments"], "error: non-finite table value\n")]
    for args, message in cases:
        cumulants.release_law_memo()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 2, args
        assert capsys.readouterr() == ("", message), args
        assert caught == [], [str(w.message) for w in caught]
    cumulants.release_law_memo()


def _no_tensor(*args):
    raise AssertionError("an index tensor was built")


def test_orders_past_the_bound_exit_two_before_any_tensor(fx, tmp_path, capsys, monkeypatch):
    """A scan of a spec declared above order 8 needs --order, a conversion
    past it is refused, and each exits 2 in well under a second."""
    one = tmp_path / "one.json"
    one.write_text('{"n": 1, "d": 1, "entries": [[[[[1.0, 0.0]]]]]}')
    serialize.save_rep(permutation_rep(4), tmp_path / "perm4.json")
    monkeypatch.setattr(cumulants, "_free_family_tensor", _no_tensor)
    start = time.perf_counter()
    for order, model in ((30, one), (10, tmp_path / "perm4.json")):
        spec = tmp_path / f"spec{order}.json"
        serialize.save_spec(CumulantSpecSingle(order=order, entries={"11": 1.0}, selfadjoint=True), spec)
        assert main(["check-invariance", "--dist", str(spec), "--rep", str(model), "--json"]) == 2
        assert capsys.readouterr() == ("", f"error: order {order} exceeds the dim-1 bound 8\n")
    semicircle = str(fx / "spec_semicircular.json")
    for calculus in ("--free", "--classical"):
        assert main(["convert", semicircle, calculus, "--to-moments", "--order", "9"]) == 2
        assert capsys.readouterr() == ("", "error: order 9 exceeds the dim-1 bound 8\n")
    assert time.perf_counter() - start < 1


def test_invariance_command(fx, capsys):
    assert main(
        [
            "check-invariance",
            "--dist", str(fx / "spec_m_unitary_3.json"),
            "--rep", str(fx / "phase_diag_3.json"),
            "--order", "5",
        ]
    ) == 0
    capsys.readouterr()
    code = main(
        [
            "check-invariance",
            "--dist", str(fx / "spec_m_unitary_3.json"),
            "--rep", str(fx / "irrational_phase.json"),
            "--order", "5",
            "--json",
        ]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["invariant"]
    assert report["first_violation"]["order"] == 3
    assert report["first_violation"]["pattern"] == "111"

    assert main(
        [
            "check-invariance",
            "--dist", str(fx / "spec_circular.json"),
            "--rep", str(fx / "bistochastic_unitary.json"),
            "--order", "4",
            "--matrix-b",
        ]
    ) == 0
    capsys.readouterr()


def test_lattice_command(fx, capsys):
    assert main(["lattice-position", str(fx / "permutation.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["minimal"] == ["S_PLUS"]
    assert report["closure"]["implied"] == "S_PLUS"
    assert report["upward_consistent"]


def test_lattice_commands_on_a_4x4_permutation(tmp_path, capsys):
    path = tmp_path / "permutation_4.json"
    serialize.save_rep(permutation_rep(4), path)
    every = sorted(tag.label() for tag in all_family_tags())
    assert len(every) == 18
    assert main(["lattice-position", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["satisfied"] == every
    assert main(["check-rep", str(path)]) == 0
    assert capsys.readouterr().out.split()[1:] == every


def test_oversized_model_file_is_input_error(tmp_path):
    # n = d = 1000 would be a 14.6 TiB (n, n, d, d) array; the size bound
    # must reject it before anything is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1000, "d": 1000, "entries": [[] for _ in range(1000)]}))
    proc = subprocess.run(
        [sys.executable, "-m", "freesym.cli", "check-rep", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "flattened dimension 1000000 exceeds 64" in proc.stderr


def test_classification_scans_at_most_the_default_moduli(tmp_path, capsys):
    # one M_UNITARY tag per modulus up to the declared order would make this
    # spec's minimal-tag comparison quadratic in 1000
    path = tmp_path / "long.json"
    serialize.save_spec(CumulantSpecSingle(order=1000, entries={"1*": 1.0, "*1": 1.0}), path)
    assert main(["classify-dist", str(path), "--free", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m_scan"] == 12
    assert report["minimal"] == ["CIRCULAR"]


def test_uncorrected_model_is_input_error(fx, tmp_path, capsys):
    bad = tmp_path / "uncorrected.json"
    serialize.save_rep(uncorrected_bistochastic_unitary_rep(3), bad)
    assert main(["check-rep", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not biunitary" in err
    assert main(
        [
            "check-invariance",
            "--dist", str(fx / "spec_circular.json"),
            "--rep", str(bad),
            "--order", "3",
        ]
    ) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args, message", [
    (["theorem1-probe", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["theorem1-probe", "--n", "-2"], "n must be 2 or 3"),
    (["theorem1-probe", "--n", "4"], "n must be 2 or 3"),
    (["check-invariance", "--dist", "{fx}/spec_semicircular.json", "--rep", "{fx}/unit_i_diag.json",
      "--order", "3", "--matrix-b", "--seed", "-1"], "seed must be nonnegative, got -1"),
])
def test_unusable_seeds_and_sizes_exit_two(fx, capsys, args, message):
    assert main([a.format(fx=fx) for a in args]) == 2
    assert message in capsys.readouterr().err


def test_negative_fixture_seed_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["fixtures", "--out", str(out), "--seed", "-1"]) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_numpy_value_errors_exit_two_without_a_traceback(monkeypatch, capsys):
    # any ValueError is unusable input, numpy's included, not a failed check
    from freesym import invariance

    def raising(**kwargs):
        raise ValueError("negative dimensions are not allowed")

    monkeypatch.setattr(invariance, "theorem1_probe", raising)
    assert main(["theorem1-probe"]) == 2
    assert capsys.readouterr().err == "error: negative dimensions are not allowed\n"
    proc = subprocess.run([sys.executable, "-m", "freesym.cli", "theorem1-probe", "--seed", "-1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: seed must be nonnegative, got -1\n"


def test_theorem1_probe_command(capsys):
    """The JSON form is theorem1_probe(2, 5) with its mismatches as lists; the text form counts them."""
    from freesym.invariance import theorem1_probe

    assert main(["theorem1-probe", "--n", "2", "--order", "5", "--json"]) == 0
    probe = theorem1_probe(2, 5)
    want = dict(probe, mismatches=[list(pair) for pair in probe["mismatches"]])
    assert capsys.readouterr().out == serialize.dumps(want)
    assert main(["theorem1-probe", "--n", "2", "--order", "5"]) == 0
    assert capsys.readouterr().out.startswith("81 cells, 0 mismatches\n")


def test_byte_identical_reports(fx, capsys):
    args = ["classify-dist", str(fx / "haar_unitary.json"), "--free", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first

    args = ["lattice-position", str(fx / "unit_i_diag.json")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_fixture_manifest_contents(fx):
    manifest = json.loads((fx / "manifest.json").read_text())
    assert set(manifest) == {"reps", "specs", "seed"}
    assert manifest["reps"]["rotation"]["family"] == "O_PLUS"
    assert manifest["reps"]["phase_diag_3"]["family"] == "H_M_PLUS:3"
    assert manifest["specs"]["haar_unitary"]["order"] == 6
    for info in manifest["reps"].values():
        assert (fx / info["file"]).exists()


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "freesym.cli", "enumerate", "--nc", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "14"


def test_enumerate_and_help_start_without_numpy():
    # each command imports the modules it needs; partitions need no numpy
    code = (
        "import sys\n"
        "from freesym.cli import main\n"
        "assert main(['enumerate', '--nc', '3']) == 0\n"
        "assert main(['--help']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0] == "5"
    assert lines[-2] == "False"
