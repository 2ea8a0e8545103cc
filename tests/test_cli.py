import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probdowling
from probdowling import rat
from probdowling.cli import COMMANDS, main


def run(capsys, *argv):
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


def test_bad_json_exits_2(capsys):
    code, _, err = run(capsys, "--command", "table", "--model", '{"kind":')
    assert code == 2


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


def test_check_corrupt_exits_1(capsys):
    code, out, _ = run(capsys, "--command", "check", "--model", BERNOULLI,
                       "--max-n", "1", "--corrupt")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    failing = [r for r in payload["reports"] if not r["pass"]]
    assert len(failing) == 1
    assert failing[0]["lhs"] != failing[0]["rhs"]


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


def test_threaded_output_matches_sequential(capsys, monkeypatch):
    args = ("--command", "table", "--model", BERNOULLI, "--m", "2",
            "--lambda", "1/3", "--max-n", "6")
    code, seq_out, _ = run(capsys, *args)
    monkeypatch.setenv("DOWLING_THREADS", "4")
    code2, par_out, _ = run(capsys, *args)
    assert code == code2 == 0
    assert seq_out == par_out


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
    (("--command", "check", "--model", BERNOULLI, "--max-n", "2",
      "--corrupt"),
     1, "d372ff272dc1d8d4a6a82bc98a13328ef6afc0ac4a317c83f15ff037b2aebe7d"),
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
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_STDOUT,
                         ids=["table-json", "table-csv-maxk", "eval",
                              "check", "check-corrupt", "dobinski",
                              "table-csv-r3-n16", "dobinski-r0",
                              "table-csv-r0-n30", "eval-r3-n24",
                              "mc-poisson-k3", "mc-geometric-k2",
                              "check-n9", "check-custom-r2-n7",
                              "dobinski-n12", "check-N9"])
def test_golden_stdout_bytes(capsys, argv, code, digest):
    # Digests of stdout as first released; any refactor must keep them.
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
       corrupt=st.booleans(),
       bad=st.lists(st.sampled_from(FUZZ_BAD), max_size=2))
def test_fuzzed_argv_keeps_the_exit_code_contract(command, max_n, samples,
                                                  options, corrupt, bad):
    argv = [f"--command={command}", f"--max-n={max_n}",
            f"--samples={samples}"]
    argv += [f"{flag}={value}" for flag, value in options.items()]
    argv += ["--corrupt"] * corrupt + bad
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse rejects the argv itself
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
