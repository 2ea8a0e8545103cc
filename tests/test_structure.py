"""Guards on the package's layout: where memo tables and imports live."""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import probdowling
from probdowling import (Bernoulli, Params, bell, bell_partial,
                         check_binom_bell, dowling, dowling_poly_r, moments,
                         ratcore, series, stirling2_degen, stirling2_prob,
                         sum_degen_moment, whitney_prob)

PACKAGE_DIR = Path(probdowling.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
# Public names kept on purpose although nothing in the package calls
# them; README's "References and public API" paragraph names the same
# ones.  A name that gains a caller in src leaves the list.
KEPT_PUBLIC = ("bell_partial", "egf_degen_exp", "degen_moment",
               "stirling2_degen", "sample_Y")
# The benchmark's per-layer report totals memo sizes for these modules only.
MEMO_MODULES = {"probdowling.moments", "probdowling.bell",
                "probdowling.dowling"}


def _memo_tables():
    """Every object with cache_info bound in a probdowling module."""
    found = {}
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        if info.name == "__main__":      # importing it runs the CLI
            continue
        mod = importlib.import_module(f"probdowling.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


def test_every_memo_table_is_registered_and_cleared():
    tables = _memo_tables()
    registry = ratcore._MEMO_TABLES
    assert {id(t) for t in tables} == {id(t) for t in registry}
    assert {t.__module__ for t in registry} <= MEMO_MODULES
    Y, params = Bernoulli(Fraction(1, 2)), Params(2, Fraction(1, 3), 1)
    dowling_poly_r(Y, params, 4)
    whitney_prob(Y, params, 4, 2, "bell_form")
    bell_partial(4, 2, [1, 2, 3])
    stirling2_degen(4, 2, Fraction(1, 3))
    stirling2_prob(Y, 4, 2, Fraction(1, 3))
    sum_degen_moment(Y, 2, 2, 1, 3, Fraction(1, 3))
    check_binom_bell(Y, params, 3, 2)
    assert all(t.cache_info().currsize > 0 for t in registry), \
        [t.__name__ for t in registry if not t.cache_info().currsize]
    probdowling.clear_caches()
    assert [t.cache_info().currsize for t in registry] == [0] * len(registry)


def test_no_memo_table_is_keyed_by_truncation_order():
    # Truncation is lossless: a series is grown or read per coefficient,
    # never stored once per order.
    keyed = [t.__name__ for t in ratcore._MEMO_TABLES
             if "order" in inspect.signature(t.__wrapped__).parameters]
    assert keyed == []


def test_no_import_inside_a_function():
    # The one exception: only the sampler loads numpy, on its first draw.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                numpy = (isinstance(node, ast.Import)
                         and [a.name for a in node.names] == ["numpy"])
                if not (numpy and path.name == "montecarlo.py"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls(tree, names):
    return [node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in names]


def test_hot_inner_sums_use_the_common_denominator_kernel():
    # These sums run once per coefficient or entry; builtin sum over
    # Fraction products would reduce by a gcd at every term.
    hot = (series.egf_mul_coeff, moments.degen_moment,
           moments._grow_kernel, moments.scaled_chain,
           dowling.dowling_poly_r, dowling._grow_whitney,
           dowling.whitney_prob_r, dowling._stirling2_degen_row,
           bell.bell_column_ints, bell._shape_sum, dowling.PolyX.__mul__,
           dowling.PolyX.__add__, dowling.PolyX.evaluate,
           dowling.PolyX.derivative, dowling.PolyX.shift_up)
    # The scaled growth loops, the integer Bell and Carlitz sums and the
    # polynomial product, sum, value, derivative and shift (the battery's
    # convolution is read off derivatives) hold integers: no Fraction is
    # built inside their loops, neither directly nor through the Fraction
    # routines degen_moment and falling_row.  The Bell row recurrence
    # bell._bell_rows is not listed: it is ring-generic, and its ring's
    # operations are these.
    scaled = (moments._grow_kernel, moments.scaled_chain,
              dowling.dowling_poly_r, dowling._grow_whitney,
              dowling._stirling2_degen_row,
              bell.bell_column_ints, bell._shape_sum, dowling.PolyX.__mul__,
              dowling.PolyX.__add__, dowling.PolyX.evaluate,
              dowling.PolyX.derivative, dowling.PolyX.shift_up)
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = []
    for fn in hot:
        tree = ast.parse(inspect.getsource(inspect.unwrap(fn)).lstrip())
        found += [fn.__name__ for _ in _calls(tree, {"sum"})]
        if fn in scaled:
            found += [f"{fn.__name__}: {name}"
                      for loop in ast.walk(tree) if isinstance(loop, loops)
                      for name in _calls(loop, {"Fraction", "degen_moment",
                                                "falling_row"})]
    assert found == []


def _names_outside(tree, skip, attributes_only=False):
    """Identifiers read (not assigned), imported or looked up as
    attributes in tree, outside the node skip; with attributes_only, only
    the names looked up as attributes (``obj.name``)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif attributes_only:
            pass
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def _src_trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def test_every_function_in_src_has_a_caller_in_src():
    # Code that only tests call belongs in the tests (oracles.py for the
    # references they compare against), not in src.  A method counts as
    # called only where it is looked up as an attribute, so a local
    # variable of the same name is no caller.  A name kept public on
    # purpose must have no caller, or it is no exception.
    trees = _src_trees()
    defined, unreferenced, called_but_kept = set(), [], []
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            targets = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                targets += [(f"{node.name}.{sub.name}", sub)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")]
            for qualname, fn in targets:
                defined.add(qualname)
                name = qualname.rpartition(".")[2]
                called = any(
                    name == seen for module, other in trees.items()
                    if module != "__init__.py"
                    for seen in _names_outside(other, fn, "." in qualname))
                if qualname in KEPT_PUBLIC:
                    if called:
                        called_but_kept.append(qualname)
                elif not called:
                    unreferenced.append(qualname)
    assert unreferenced == []
    assert called_but_kept == []
    assert set(KEPT_PUBLIC) <= defined
    readme = README.read_text()
    assert [name for name in KEPT_PUBLIC if f"`{name}`" not in readme] == []


def test_every_exported_name_is_read_in_src():
    # An export that no other module of the package reads or imports is
    # dead, unless it is kept public on purpose (KEPT_PUBLIC).
    trees = _src_trees()
    exported = [alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = {name for tree in trees.values()
            for name in _names_outside(tree, None)}
    assert [name for name in exported
            if name not in read and name not in KEPT_PUBLIC] == []
