import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probdowling
from probdowling import PolyX, cli, dowling_poly_r, identities, rat
from probdowling.cli import COMMANDS, _json_dump, main, parse_config


def run(capsys, *argv):
    # pytest records warnings instead of printing them, so a warning that
    # a command would print to stderr is raised here instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BERNOULLI = '{"kind": "bernoulli", "p": "1/2"}'


def test_table_frozen_row(capsys):
    code, out, _ = run(capsys, "--command", "table",
                       "--model", '{"kind": "pointmass", "c": "1"}',
                       "--m", "2", "--lambda", "1/3", "--r", "1",
                       "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2] == ["2/3", "11/3", "1"]
    assert payload["rows"][0] == ["1"]


def test_table_max_n_zero(capsys):
    code, out, _ = run(capsys, "--command", "table", "--model", BERNOULLI,
                       "--max-n", "0", "--format", "csv")
    assert code == 0 and out == "1\n"


def test_table_max_k_caps_columns(capsys):
    code, out, _ = run(capsys, "--command", "table",
                       "--model", '{"kind": "pointmass", "c": "1"}',
                       "--m", "2", "--lambda", "1/3", "--max-n", "3",
                       "--max-k", "1", "--format", "csv")
    assert code == 0
    assert all(len(line.split(",")) <= 2 for line in out.strip().splitlines())


def test_table_csv_json_value_equivalence_and_determinism(capsys):
    args = ("--command", "table", "--model", BERNOULLI, "--m", "3",
            "--lambda=-1/3", "--r", "2", "--max-n", "5")
    code, json_out, _ = run(capsys, *args)
    code2, json_out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert json_out == json_out2          # byte-identical across runs
    code3, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code3 == 0
    json_rows = [[rat(v) for v in row] for row in json.loads(json_out)["rows"]]
    csv_rows = [[rat(v) for v in line.split(",")]
                for line in csv_out.strip().splitlines()]
    assert json_rows == csv_rows


def test_invalid_probability_exits_2(capsys):
    code, _, err = run(capsys, "--command", "table",
                       "--model", '{"kind": "bernoulli", "p": "3/2"}')
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("argv", [
    ("--command", "table", "--model",
     '{"kind": "custom", "moments": ' + "[" * 500 + "]" * 500 + "}"),
    ("--command", "table", "--model",
     '{"kind": "custom", "moments": [[[[[['
     + ", ".join(['"' + "7" * 100 + '"'] * 10) + "]]]]]]}"),
    ("--command", "table", "--model", "[" + ", ".join(["1"] * 600) + "]"),
    ("--command", "table", "--model",
     "[" * 5 + ", ".join(["[" + '"1", ' * 10 + '"1"]'] * 10) + "]" * 5),
    ("--command", "table", "--model", '{"kind": "' + "k" * 2000 + '"}'),
    ("--command", "table", "--model",
     '{"kind": "poisson", "rate": "1", "' + "q" * 2000 + '": 1}'),
    ("--command", "table", "--model",
     '{"kind": "poisson", "rate": "' + "9" * 1000 + 'x"}'),
    ("--command", "eval", "--lambda=1/" + "0" * 2000),
    ("--command", "dobinski", "--model", '{"kind": "poisson", "rate": "1"}',
     "--max-n", "2", "--x", "1e300"),
    ("--command", "dobinski", "--model", '{"kind": "poisson", "rate": "1"}',
     "--max-n", "2", "--x=-1e300"),
], ids=["nested-custom", "wide-custom", "long-list", "wide-list", "kind",
        "field", "literal", "zero-denominator", "dobinski-x",
        "dobinski-negative-x"])
def test_configuration_errors_echo_a_bounded_value(capsys, argv):
    # However long the offending value, the report is one short line.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert len(err) <= 300, err


@pytest.mark.parametrize("model", [
    '{"kind":',
    "[" * 5000 + "]" * 5000,
    '{"kind": "custom", "moments": ' + "[" * 5000 + "]" * 5000 + "}",
], ids=["truncated", "nested", "nested-custom"])
def test_bad_json_exits_2(capsys, model):
    # Nesting past the decoder's recursion limit is a bad model, not a
    # failed identity (exit 1).
    code, out, err = run(capsys, "--command", "table", "--model", model)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_moment_shortfall_exits_3(capsys):
    code, _, err = run(capsys, "--command", "table",
                       "--model", '{"kind": "custom", "moments": ["1", "1/2"]}',
                       "--max-n", "5")
    assert code == 3
    assert "moment shortfall" in err


def test_eval_frozen_value(capsys):
    code, out, _ = run(capsys, "--command", "eval",
                       "--model", '{"kind": "pointmass", "c": "1"}',
                       "--m", "2", "--lambda", "1/3", "--max-n", "2",
                       "--x", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["1", "2", "16/3"]


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "--command", "eval", "--model", BERNOULLI,
                       "--max-n", "1", "--x", "2", "--format", "csv",
                       "--lambda", "1/2")
    assert code == 0
    assert out == "0,1\n1,2\n"


def test_check_default_grid_passes(capsys):
    code, out, _ = run(capsys, "--command", "check", "--model", BERNOULLI,
                       "--m", "2", "--lambda", "1/3", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(r["pass"] for r in payload["reports"])
    names = {r["theorem"] for r in payload["reports"]}
    assert names == {"sum_moment_identity", "bell_expansion", "recurrence",
                     "convolution", "binomial_bell", "bell_r_whitney",
                     "stirling_bell", "derivative", "binomial_inversion"}


def test_check_other_models_pass(capsys):
    for model in ('{"kind": "discreteuniform", "max": 2}',
                  '{"kind": "geometric", "p": "1/2"}'):
        code, out, _ = run(capsys, "--command", "check", "--model", model,
                           "--m", "1", "--lambda", "1/2", "--max-n", "2")
        assert code == 0
        assert json.loads(out)["all_pass"] is True


def test_check_corrupt_exits_1(capsys, monkeypatch):
    # D(3, x) gains x^2 where the battery reads it: the identities that
    # read row 3 fail, and the command exits 1 with the whole report.
    real = identities.dowling_poly

    def corrupt(model, params, n):
        row = real(model, params, n)
        return row + PolyX((0, 0, 1)) if n == 3 else row

    monkeypatch.setattr(identities, "dowling_poly", corrupt)
    probdowling.clear_caches()
    try:
        code, out, err = run(capsys, "--command", "check",
                             "--model", '{"kind": "geometric", "p": "1/2"}',
                             "--m", "3", "--lambda", "1/2", "--max-n", "4")
    finally:
        probdowling.clear_caches()
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["all_pass"] is False
    failing = {r["theorem"] for r in payload["reports"] if not r["pass"]}
    assert {"recurrence", "convolution"} <= failing
    assert "binomial_inversion" not in failing


def test_dobinski_exit_codes(capsys):
    code, out, _ = run(capsys, "--command", "dobinski", "--model", BERNOULLI,
                       "--m", "2", "--lambda", "1/3", "--max-n", "4",
                       "--x", "1", "--tol", "1e-10")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["abs_gap"] <= 1e-12
    code2, _, _ = run(capsys, "--command", "dobinski", "--model", BERNOULLI,
                      "--x", "-1")
    assert code2 == 2


def test_mc_poisson_exits_0(capsys):
    code, out, _ = run(capsys, "--command", "mc",
                       "--model", '{"kind": "poisson", "rate": "1"}',
                       "--m", "1", "--r", "0", "--lambda", "1/2",
                       "--max-n", "2", "--max-k", "3",
                       "--samples", "100000", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["abs_gap"] <= 5 * payload["std_error"]


def test_mc_point_mass_zero_variance(capsys):
    code, out, _ = run(capsys, "--command", "mc",
                       "--model", '{"kind": "pointmass", "c": "1"}',
                       "--m", "2", "--lambda", "1/2", "--max-n", "1",
                       "--max-k", "2", "--samples", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["std_error"] == 0.0 and payload["mean"] == 5.0


def test_mc_custom_model_exits_2(capsys):
    code, _, err = run(capsys, "--command", "mc",
                       "--model", '{"kind": "custom", "moments": ["1", "1"]}',
                       "--max-n", "1", "--max-k", "1")
    assert code == 2


def test_out_file_and_model_path(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    model_file.write_text(BERNOULLI)
    out_file = tmp_path / "table.csv"
    code, out, _ = run(capsys, "--command", "table",
                       "--model", str(model_file), "--max-n", "1",
                       "--format", "csv", "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text() == "1\n1,1/2\n"


GOLDEN_STDOUT = [
    (("--command", "table", "--model", BERNOULLI, "--m", "2",
      "--lambda", "1/3", "--max-n", "6"),
     0, "312be25bc894ba1928cf38d84785e3e8649449deed2edbd625870f3aedb836f3"),
    (("--command", "table", "--model", '{"kind": "poisson", "rate": "1"}',
      "--m", "3", "--lambda=-1/3", "--r", "2", "--max-n", "7",
      "--max-k", "4", "--format", "csv"),
     0, "87c70c2bf9145128081e926f857ac67586e735ea7e644e2395e21de79ceb0fb4"),
    (("--command", "eval", "--model", '{"kind": "poisson", "rate": "1"}',
      "--m", "2", "--lambda=-1/3", "--max-n", "6", "--x", "3/2"),
     0, "71182eb88d26860c14dbeb5c01dcb3b472168e1367f8d331ab570ffd8c5d7bdd"),
    (("--command", "check", "--model", '{"kind": "geometric", "p": "1/2"}',
      "--m", "3", "--lambda", "1/2", "--max-n", "5"),
     0, "e860bbe68b4c2b66e631e32be9a7f2cd3759e3e176641ac3fd6849cb236d29af"),
    (("--command", "dobinski",
      "--model", '{"kind": "binomial", "trials": 3, "p": "1/3"}',
      "--m", "2", "--lambda", "1/3", "--max-n", "4", "--x", "1"),
     0, "17e39b1e2c2cc8d79f5ed0f02c1233876c90621d1c7452e8fd954658ca7569bc"),
    (("--command", "table", "--model", '{"kind": "geometric", "p": "1/3"}',
      "--m", "3", "--lambda=-1/2", "--r", "3", "--max-n", "16",
      "--format", "csv"),
     0, "977daae69a3d52ee9ff17e42bbc11716a977b7599c44fddf550befad17798259"),
    (("--command", "dobinski", "--model", '{"kind": "poisson", "rate": "2"}',
      "--m", "1", "--lambda=1/3", "--r", "0", "--max-n", "8", "--x", "5"),
     0, "af8a34030b9d38812fcb43c57402d4e2cb669855d48f15911a580e17d18d6309"),
    (("--command", "table", "--model", '{"kind": "geometric", "p": "2/3"}',
      "--m", "3", "--lambda=-5/2", "--r", "0", "--max-n", "30",
      "--format", "csv"),
     0, "44a6427f25b006f2c2cae4695aa2f90bf9bac945726f7cdfdf14b448c60f411e"),
    (("--command", "eval", "--model", '{"kind": "poisson", "rate": "7/3"}',
      "--m", "2", "--lambda=4/3", "--r", "3", "--max-n", "24", "--x=-5/4"),
     0, "c566925ed9285e4e1aa5b0fb913ecf7cba55461aee5d8d880bfbfd389f58b0e1"),
    (("--command", "mc", "--model", '{"kind": "poisson", "rate": "1"}',
      "--m", "1", "--r", "0", "--lambda", "1/2", "--max-n", "2",
      "--max-k", "3", "--samples", "100000", "--seed", "7"),
     0, "3787c493374c787410d40090a5cd292244706e925f0183f27e345e077e5c1b65"),
    (("--command", "mc", "--model", '{"kind": "geometric", "p": "1/3"}',
      "--m", "2", "--r", "1", "--lambda=-1/3", "--max-n", "3",
      "--max-k", "2", "--samples", "20000", "--seed", "11"),
     0, "ee72a3d4eae3fae014df1ade2d8bb04940afb9381731e6c05f67fdc75eec6100"),
    (("--command", "check", "--model", '{"kind": "geometric", "p": "1/2"}',
      "--m", "3", "--lambda", "1/2", "--max-n", "9"),
     0, "04371480d4bc5ea7ff8c0e0080c06013a9be403232fa345b1463e0a271b2bed0"),
    (("--command", "check", "--model",
      '{"kind": "custom", "moments": ["1", "1/3", "2/5", "1/2", "3/4", "1", '
      '"2", "5", "9"]}',
      "--m", "2", "--lambda=-2/3", "--r", "2", "--max-n", "7"),
     0, "e8858230ba24817cc4b105d32aee86a2aff63d23af1f71f452b22e0f12e6a772"),
    (("--command", "dobinski", "--model", '{"kind": "poisson", "rate": "1"}',
      "--m", "1", "--lambda", "1/3", "--r", "2", "--max-n", "12",
      "--x", "9/2"),
     0, "51a962391c31227156314c19d773d8828c786f2477c7a8e78a4cc8070ae3c181"),
    (("--command", "check", "--model", '{"kind": "discreteuniform", "max": 3}',
      "--m", "3", "--lambda", "1/2", "--max-n", "6", "--N", "9"),
     0, "5d855d97454ac198aa6a6fad04109849dd1bd3a3f0eb2e972591abf896de8ae9"),
    (("--command", "check", "--model", '{"kind": "poisson", "rate": "3/2"}',
      "--m", "2", "--lambda=-1/3", "--max-n", "12"),
     0, "93828a0463d812c88a59b9ba9f99c99806c045f622be25af9e7f53412ab134b8"),
    # Rows 31-60 at m = 2, r = 2: the deepest golden table.
    (("--command", "table", "--model", '{"kind": "poisson", "rate": "1"}',
      "--m", "2", "--lambda=1/3", "--r", "2", "--max-n", "60",
      "--format", "csv"),
     0, "9fdfc86aeadf43aab3082d1bf4eb0840a7d1bb0412d0a90eae23567512e7d8d8"),
    # E[Y] = 0: rows n >= 1 end in zeros, and every polynomial side is
    # written in its one canonical form, without them, however it was
    # summed.
    (("--command", "check", "--model", '{"kind": "bernoulli", "p": "0"}',
      "--m", "2", "--lambda=-1/2", "--max-n", "6"),
     0, "b37cc4fc660ee857a8e2c730a5cbc786e5a3871cf11d9e9de2578a837234de04"),
    # The same zero-mean rows as a table: row n keeps its n + 1 entries,
    # the trailing zeros written out.
    (("--command", "table", "--model", '{"kind": "bernoulli", "p": "0"}',
      "--m", "2", "--lambda=-1/2", "--max-n", "6", "--format", "csv"),
     0, "f8a78a0be1cdf772084d2c94bbbe16b7c2b0876dc1349c41e1fe78da46645515"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_STDOUT,
                         ids=["table-json", "table-csv-maxk", "eval",
                              "check", "dobinski",
                              "table-csv-r3-n16", "dobinski-r0",
                              "table-csv-r0-n30", "eval-r3-n24",
                              "mc-poisson-k3", "mc-geometric-k2",
                              "check-n9", "check-custom-r2-n7",
                              "dobinski-n12", "check-N9", "check-n12",
                              "table-csv-m2-r2-n60", "check-zero-mean",
                              "table-csv-zero-mean"])
def test_golden_stdout_bytes(capsys, argv, code, digest):
    # Digests of stdout as first released; any refactor must keep them.
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _TruthyZero(Fraction):
    """A zero weight that a sum skipping falsy weights still adds."""

    def __bool__(self):
        return True


def test_check_bytes_do_not_depend_on_zero_weight_terms(capsys, monkeypatch):
    # E[Y] = 0 makes every probabilistic Stirling weight of the derivative
    # sums 0.  Adding those zero terms, or skipping them, must write the
    # same polynomial sides.
    argv = ("--command", "check", "--model", '{"kind": "bernoulli", "p": "0"}',
            "--m", "2", "--lambda=-1/2", "--max-n", "6")
    code, out, _ = run(capsys, *argv)
    real = identities.stirling2_prob

    def summed(*args):
        s = real(*args)
        return s if s else _TruthyZero(0)

    monkeypatch.setattr(identities, "stirling2_prob", summed)
    assert run(capsys, *argv) == (code, out, "")
    sides = [side for r in json.loads(out)["reports"]
             if r["theorem"] in ("bell_expansion", "recurrence", "derivative")
             for side in (r["lhs"], r["rhs"])]
    assert code == 0 and ["0"] in sides
    assert all(side == ["0"] or side[-1] != "0" for side in sides)


def test_mc_point_mass_rounding_noise_passes(capsys):
    # The float mean carries ~1e-15 rounding error while the standard
    # error is ~1e-18 of noise rather than 0; the verdict must still pass.
    code, out, _ = run(capsys, "--command", "mc",
                       "--model", '{"kind": "pointmass", "c": "1/3"}',
                       "--m", "2", "--lambda=1/2", "--max-n", "3",
                       "--max-k", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_exact_commands_never_load_numpy():
    # Only the sampler draws, so only `mc` may import numpy.  This pytest
    # process has numpy loaded already, hence a fresh interpreter.
    script = textwrap.dedent("""\
        import contextlib, io, sys
        import probdowling, probdowling.cli
        from probdowling.cli import main
        model = '{"kind": "poisson", "rate": "1"}'
        with contextlib.redirect_stdout(io.StringIO()):
            for extra in (["table"], ["eval"], ["check", "--max-n", "2"],
                          ["dobinski", "--max-n", "2"]):
                assert main(["--command", *extra, "--model", model]) == 0
            assert "numpy" not in sys.modules
            assert main(["--command", "mc", "--model", model,
                         "--max-n", "2", "--samples", "100"]) == 0
        assert "numpy" in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=str(
        Path(probdowling.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_samples_beyond_the_address_space_exit_2(capsys):
    # 10**15 float64 samples are 8 PB, past any 64-bit address space, so
    # the allocation fails at once without touching memory.
    code, out, err = run(capsys, "--command", "mc",
                         "--model", '{"kind": "poisson", "rate": "1"}',
                         "--samples", "1000000000000000", "--max-n", "2",
                         "--max-k", "1")
    assert code == 2 and out == ""
    assert "1000000000000000 samples" in err


def test_unreadable_model_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "--command", "table",
                         "--model", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert "configuration error" in err


@pytest.mark.parametrize("model", ["[1]", ' [{"kind": "poisson"}]'])
def test_inline_json_array_model_exits_2(capsys, model):
    # Text starting with "[" is inline JSON too, not a file path.
    code, out, err = run(capsys, "--command", "table", "--model", model)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "model config must be a JSON object" in err
    assert "cannot read model file" not in err


def test_negative_max_k_exits_2(capsys):
    code, out, err = run(capsys, "--command", "table", "--model", BERNOULLI,
                         "--max-k", "-3")
    assert code == 2 and out == ""
    assert "configuration error" in err


def test_negative_N_exits_2(capsys):
    code, out, err = run(capsys, "--command", "check", "--model", BERNOULLI,
                         "--N", "-2")
    assert code == 2 and out == ""
    assert "configuration error" in err


def test_fractional_binomial_trials_exits_2(capsys):
    code, out, err = run(capsys, "--command", "table", "--model",
                         '{"kind": "binomial", "trials": 3.5, "p": "1/2"}')
    assert code == 2 and out == ""
    assert "trials" in err


def test_boolean_uniform_max_exits_2(capsys):
    code, out, err = run(capsys, "--command", "table", "--model",
                         '{"kind": "discreteuniform", "max": true}')
    assert code == 2 and out == ""
    assert "max" in err


def test_unknown_model_field_exits_2(capsys):
    code, out, err = run(capsys, "--command", "table", "--model",
                         '{"kind": "poisson", "rate": "1", "q": "7"}')
    assert code == 2 and out == ""
    assert "'q'" in err


@pytest.mark.parametrize("argv", [
    ("--command", "eval", "--lambda=1/0"),
    ("--command", "eval", "--x=1/0"),
    ("--command", "table", "--model", '{"kind": "bernoulli", "p": "1/0"}'),
], ids=["lambda", "x", "model-p"])
def test_zero_denominator_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "zero denominator" in err


def test_unwritable_out_path_exits_2(capsys):
    code, out, err = run(capsys, "--command", "table", "--model", BERNOULLI,
                         "--out", os.path.join(os.devnull, "table.json"))
    assert code == 2 and out == ""
    assert "cannot write output file" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_2(capsys, tol):
    code, out, err = run(capsys, "--command", "dobinski",
                         "--model", '{"kind": "poisson", "rate": "1"}',
                         "--max-n", "2", "--x", "3", "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol" in err


def test_dobinski_beyond_float_range_exits_2(capsys):
    code, out, err = run(capsys, "--command", "dobinski",
                         "--model", '{"kind": "poisson", "rate": "1"}',
                         "--lambda=1/2", "--max-n", "2", "--x", "1000")
    assert code == 2 and out == ""
    assert "float range" in err


@pytest.mark.parametrize("argv, named", [
    (["--model", '{"kind": "binomial", "trials": 1180591620717411303424, '
      '"p": "1/2"}', "--max-n", "1", "--max-k", "1", "--samples", "10"],
     "binomial trials 1180591620717411303424 leave the sampler's int64 range"),
    (["--model", '{"kind": "pointmass", "c": "1e400"}', "--max-n", "1",
      "--max-k", "1", "--samples", "10"],
     "point mass c of magnitude about 10^400 leaves float range"),
    (["--model", '{"kind": "poisson", "rate": "5"}', "--m", "10",
      "--max-n", "200", "--max-k", "3", "--samples", "1000"],
     "exact target E[(10 S_3 + 1)_{200,0}] of magnitude about 10^554 "
     "leaves float range"),
])
def test_mc_beyond_float_or_int64_range_exits_2(capsys, argv, named):
    code, out, err = run(capsys, "--command", "mc", *argv)
    assert code == 2 and out == ""
    assert err == f"configuration error: {named}\n"


@pytest.mark.parametrize("max_n", [100, 110])
def test_mc_infinite_standard_error_exits_2(capsys, max_n):
    # The float sample variance overflows: an infinite standard error would
    # pass any gap, and JSON has no Infinity.
    code, out, err = run(capsys, "--command", "mc",
                         "--model", '{"kind": "poisson", "rate": "5"}',
                         "--m", "10", "--max-k", "3", "--max-n", str(max_n),
                         "--samples", "1000")
    assert code == 2 and out == ""
    assert err == (f"configuration error: standard error inf of "
                   f"E[(10 S_3 + 1)_{{{max_n},0}}] leaves float range\n")


@pytest.mark.parametrize("argv, code, prefix", [
    (["--command", "table", "--max-n", "2"], 0, None),
    # The series falls short of exact by about 1e-16, past a tolerance
    # below double precision.
    (["--command", "dobinski", "--model", '{"kind": "poisson", "rate": "1"}',
      "--m", "2", "--lambda", "1/3", "--max-n", "3", "--x", "1",
      "--tol", "1e-17"], 1, None),
    (["--command", "eval", "--lambda=1/0"], 2, "configuration error:"),
    (["--command", "table", "--max-n", "5",
      "--model", '{"kind": "custom", "moments": ["1", "1/2"]}'],
     3, "moment shortfall:"),
], ids=["exit-0", "exit-1", "exit-2", "exit-3"])
def test_stderr_of_a_fresh_interpreter(argv, code, prefix):
    # A warning printed by the interpreter itself, outside sys.stderr
    # redirection, shows only in a separate process.
    env = dict(os.environ, PYTHONPATH=str(
        Path(probdowling.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "probdowling", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == code
    if prefix is None:
        assert done.stderr == ""
    else:
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), done.stderr


def test_memory_exhaustion_in_a_fresh_interpreter_exits_2():
    # The child caps its own address space before it starts; a shift of
    # 4001 digits makes every row about 13,000 bits longer than the one
    # before, so the table leaves 64 MiB within seconds.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    env = dict(os.environ, PYTHONPATH=str(
        Path(probdowling.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "probdowling",
                           "--command", "table", "--r", "1" + "0" * 4000,
                           "--max-n", "100000", "--format", "csv"],
                          env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=cap_address_space)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("configuration error: --command table with "
                           "--max-n 100000 does not fit in memory\n")


def test_memory_exhaustion_exits_2_with_one_line(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "dowling_poly_r", exhausted)
    code, out, err = run(capsys, "--command", "table", "--max-n", "3")
    assert (code, out) == (2, "")
    assert err == ("configuration error: --command table with --max-n 3 "
                   "does not fit in memory\n")


@pytest.mark.parametrize("model, x, max_n", [
    ('{"kind": "pointmass", "c": "1"}', "1e1000", 5),
    ('{"kind": "pointmass", "c": "1e100"}', "1", 44),
], ids=["large-x", "large-model"])
def test_exact_values_past_the_digit_limit_print_whole(capsys, model, x,
                                                       max_n):
    # D(max_n, x) has more than 4,300 digits, Python's default limit on
    # an int written as text; the limit is lifted for the command only.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "--command", "eval", "--model", model,
                         "--x", x, "--max-n", str(max_n))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    cfg = parse_config(["--command", "eval", "--model", model, "--x", x])
    expected = [dowling_poly_r(cfg.model, cfg.params, n).evaluate(cfg.x)
                for n in range(max_n + 1)]
    assert abs(expected[-1].numerator) >= 10 ** limit
    sys.set_int_max_str_digits(0)   # to read the output back
    try:
        assert [rat(v) for v in json.loads(out)["values"]] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_check_past_the_digit_limit_exits_0(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "--command", "check", "--model",
                         '{"kind": "pointmass", "c": "1e1000"}',
                         "--max-n", "5")
    assert (code, err) == (0, "")
    assert json.loads(out)["all_pass"] is True
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("flag, value", [
    ("--x", "1" + "0" * 5000),
    ("--model", '{"kind": "pointmass", "c": "1%s"}' % ("0" * 5000)),
], ids=["x", "model"])
def test_input_past_the_digit_limit_exits_2(capsys, flag, value):
    # Inputs are read under the interpreter's limit, before it is lifted.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "--command", "eval", flag, value)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("configuration error: ")
    assert "is 5001 characters, too long to read" in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
def test_model_json_integer_past_the_digit_limit_exits_2(capsys):
    # json.loads refuses the integer with Python's own advice to call
    # sys.set_int_max_str_digits(); the CLI says what it could not read.
    model = ('{"kind": "binomial", "trials": 1%s, "p": "1/2"}'
             % ("0" * 5000))
    code, out, err = run(capsys, "--command", "table", "--model", model)
    assert (code, out) == (2, "")
    assert err == ("configuration error: model JSON holds an integer too "
                   "long to read\n")


def test_json_output_refuses_non_finite_floats():
    cfg = parse_config(["--command", "dobinski"])
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            _json_dump(cfg, {"abs_gap": value})


HUGE_BINOMIAL = ('{"kind": "binomial", "trials": 9223372036854775807, '
                 '"p": "%s"}')


def test_huge_binomial_trials_table_exits_0(capsys):
    code, out, err = run(capsys, "--command", "table",
                         "--model", HUGE_BINOMIAL % "1/3", "--max-n", "3",
                         "--format", "csv")
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == ["1", "1,9223372036854775807/3"]


def test_huge_binomial_trials_mc_exits_0(capsys):
    code, out, err = run(capsys, "--command", "mc",
                         "--model", HUGE_BINOMIAL % "1/2", "--max-n", "1",
                         "--max-k", "1", "--samples", "10")
    assert code == 0 and err == ""
    assert json.loads(out)["pass"] is True


def test_cold_start_loads_no_dataclasses():
    # dataclasses and the modules it imports cost about 25 ms of every
    # CLI start; no command needs them.
    script = textwrap.dedent("""\
        import contextlib, io, runpy, sys
        sys.argv = ["probdowling", "--command", "table", "--max-n", "0"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("probdowling", run_name="__main__")
            except SystemExit as exc:
                assert exc.code in (0, None), exc.code
        loaded = [name for name in ("dataclasses", "inspect")
                  if name in sys.modules]
        assert loaded == [], loaded
    """)
    env = dict(os.environ, PYTHONPATH=str(
        Path(probdowling.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# Each argv is built from good values, then up to two bad ones are appended
# (argparse keeps the last).  --max-n and --samples stay small, and --out
# only ever names a path that cannot be written.
FUZZ_GOOD = {
    "--model": (BERNOULLI, '{"kind": "poisson", "rate": "1"}',
                '{"kind": "geometric", "p": "1/3"}',
                '{"kind": "pointmass", "c": "-1/2"}',
                '{"kind": "binomial", "trials": 2, "p": "1/3"}',
                '{"kind": "discreteuniform", "max": 2}',
                '{"kind": "custom", "moments": ["1", "1/2", "1/2", "1/2"]}'),
    "--m": ("1", "2", "3"),
    "--lambda": ("0", "1/2", "-1/3", "1", "3.5"),
    "--r": ("0", "1", "2"),
    "--max-k": ("0", "1", "2"),
    "--N": ("0", "2"),
    "--x": ("0", "1", "3/2", "5"),
    "--format": ("csv", "json"),
    "--seed": ("0", "7"),
    "--tol": ("1e-10", "1e-6"),
}
FUZZ_BAD = (
    "--command=bogus", "--max-n=-1", "--max-n=abc", "--max-n=3.5",
    "--samples=1", "--samples=-5", "--samples=abc",
    "--m=0", "--m=-1", "--m=abc", "--m=3.5", "--r=-1", "--r=abc",
    "--lambda=1/0", "--lambda=abc", "--x=-1", "--x=1000", "--x=1/0",
    "--x=abc", "--max-k=-3", "--max-k=abc", "--N=-2", "--format=xml",
    "--seed=abc", "--tol=0", "--tol=-1", "--tol=abc",
    f"--out={os.path.join(os.devnull, 'out')}",
    '--model={"kind": "binomial", "trials": 3.5, "p": "1/2"}',
    '--model={"kind": "discreteuniform", "max": true}',
    '--model={"kind": "poisson", "rate": "1", "q": "7"}',
    '--model={"kind": "bernoulli", "p": "1/0"}',
    '--model={"kind": "bernoulli", "p": 0.5}',
    '--model={"kind": "custom", "moments": ["1", "1/2"]}',
    '--model={"kind": ["poisson"]}', '--model={"kind":', "--model=abc",
)


@settings(max_examples=400)
@given(command=st.sampled_from(COMMANDS),
       max_n=st.sampled_from(("0", "1", "2", "3")),
       samples=st.sampled_from(("2", "50", "200")),
       options=st.fixed_dictionaries({}, optional={
           flag: st.sampled_from(values)
           for flag, values in FUZZ_GOOD.items()}),
       bad=st.lists(st.sampled_from(FUZZ_BAD), max_size=2))
def test_fuzzed_argv_keeps_the_exit_code_contract(command, max_n, samples,
                                                  options, bad):
    argv = [f"--command={command}", f"--max-n={max_n}",
            f"--samples={samples}"]
    argv += [f"{flag}={value}" for flag, value in options.items()]
    argv += bad
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse rejects the argv itself
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
