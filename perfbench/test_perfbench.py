"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTrace  # noqa: E402

TINY = {
    "table-cold": {"ladder": (("table", 3), ("eval", 4))},
    "verify-cold": {"ladder": (("check", 2), ("dobinski", 3), ("mc", 1))},
    "oracle-warm": {"n_ladder": (3,), "grid": {"models": 2, "m": 1}},
}


def first_cycles(workload, seed, count=3):
    return list(islice(workloads.cycles(workload, seed), count))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_always_generates_the_same_requests(workload):
    assert first_cycles(workload, 7) == first_cycles(workload, 7)
    assert first_cycles(workload, 7) != first_cycles(workload, 8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_the_inputs_but_not_the_sizes(workload):
    def sizes(seed):
        return [[(req.get("command"), req.get("size"), req.get("n"))
                 for req in cycle] for cycle in first_cycles(workload, seed)]
    assert sizes(7) == sizes(8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_has_no_failures(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace,
                     **TINY[workload])
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [name for name, *_ in
             (run.per_layer_spec() if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names


def _sample_values(pd):
    Y = pd.Geometric(Fraction(1, 2))
    params = pd.Params(2, Fraction(-1, 3), 2)
    values = [pd.whitney_prob(Y, pd.Params(2, Fraction(1, 2)), n, k, route)
              for n in range(6) for k in range(n + 1)
              for route in ("egf", "alt_sum", "stirling_expand", "bell_form")]
    values += [pd.dowling_poly_r(Y, params, 5),
               pd.stirling2_degen(6, 3, Fraction(1, 3)),
               pd.check_derivative(Y, params, 4, 2).passed,
               pd.check_sum_identity(Y, params, 4, 3).passed]
    return values


def _clear_caches():
    from probdowling import bell, dowling, moments
    for mod in (bell, dowling, moments):
        mod.clear_caches()


def test_wrapped_functions_return_what_unwrapped_ones_do():
    import probdowling as pd
    from probdowling import cli, moments, series
    _clear_caches()
    expected = _sample_values(pd)
    original_mul = series.egf_mul
    tracer = LayerTrace().install()
    try:
        assert moments.egf_mul is series.egf_mul is not original_mul
        assert cli._DISPATCH["table"] is cli.cmd_table
        assert cli.cmd_table.__wrapped__ is not None
        _clear_caches()
        assert _sample_values(pd) == expected
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert series.egf_mul is original_mul and moments.egf_mul is original_mul
    assert snap["funcs"]["series.egf_mul"]["calls"] > 0
    assert snap["funcs"]["bell.bell_partial_series"]["calls"] > \
        snap["memo"]["bell.bell_partial_series"]["misses"] > 0
    json.dumps(snap)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()
