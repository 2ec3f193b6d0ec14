"""The classes built by hand rather than generated: charts compare and hash
by their names, so equal charts share the cohomology caches; validation
raises the texts the manifests and tests read; records and validated
classes print as Name(field=value, ...)."""

import pytest

from poisskit import cli, flow, poisson
from poisskit.dirac import SubmanifoldFlags
from poisskit.expr import Chart, ChartMismatchError, ExprError, RatFunc, chart
from poisskit.multivec import MultiVec, PolyMap

SO3 = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "z", "1,2": "x", "0,2": "-y"}}}


def test_charts_built_apart_are_equal_and_hash_alike():
    a, b = chart("x", "y"), Chart(("x", "y"))
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    for other in (chart("y", "x"), chart("x", "y", "z"), chart("x", "w")):
        assert a != other and not a == other
    assert a != ("x", "y") and a != "x,y"


def test_equal_charts_from_fresh_manifests_share_the_coded_bases():
    first = poisson.require_poisson(cli.load_manifest(SO3).bivectors["pi"])
    poisson.cohomology(first, 1, 2)
    second = poisson.require_poisson(cli.load_manifest(SO3).bivectors["pi"])
    assert second.chart is not first.chart and second.chart == first.chart
    before = poisson._coded_basis.cache_info()
    assert poisson.cohomology(second, 1, 2) == poisson.cohomology(first, 1, 2)
    after = poisson._coded_basis.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("names,message", [
    ((), "chart needs at least one variable"),
    (("x", "y", "x"), r"chart variables not distinct: \('x', 'y', 'x'\)"),
    (("x", "2y"), "invalid variable name '2y'"),
])
def test_chart_validation_texts(names, message):
    with pytest.raises(ExprError, match=message):
        Chart(names)


@pytest.mark.parametrize("settings,message", [
    ({"dt": 0.0}, r"need 0 < dt <= t_max"),
    ({"t_max": -1.0}, r"need 0 < dt <= t_max"),
    ({"dt": 2.0, "t_max": 1.0}, r"need 0 < dt <= t_max"),
    ({"tol": 0.0}, "tolerance must be positive"),
])
def test_flow_config_validation_texts(settings, message):
    with pytest.raises(flow.FlowError, match=message):
        flow.FlowConfig(**settings)


def test_poly_map_validation_texts(ch2, ch3):
    x = RatFunc.var(ch2, 0)
    with pytest.raises(ExprError, match="component count must equal target dimension"):
        PolyMap(ch2, ch3, (x, x))
    with pytest.raises(ChartMismatchError, match="components must live on the source chart"):
        PolyMap(ch2, ch3, (x, x, RatFunc.var(ch3, 0)))


def test_poisson_structure_validation_text(ch3):
    field = MultiVec(ch3, 1, {(0,): RatFunc.var(ch3, 1)})
    with pytest.raises(poisson.PoissonError,
                       match="a Poisson structure needs a degree-2 multivector"):
        poisson.PoissonStructure(field, False)


def test_reprs_name_every_field(ch2):
    assert repr(flow.FlowConfig()) == "FlowConfig(dt=0.001, t_max=10.0, tol=1e-06)"
    assert repr(SubmanifoldFlags(True, False, True, "exact")) == \
        "SubmanifoldFlags(poisson=True, coisotropic=False, cosymplectic=True, mode='exact')"
    identity = PolyMap.identity(ch2)
    assert repr(identity) == ("PolyMap(source=Chart(x, y), target=Chart(x, y), "
                              f"components={identity.components!r})")
    result = cli.TaskResult("rank", None, ["INFO rank 2"], {"rank": 2})
    assert repr(result) == \
        "TaskResult(name='rank', passed=None, lines=['INFO rank 2'], data={'rank': 2})"
