"""Each parameter range rule is written once, in the type or function that owns
the parameter; resolve_config reaches it by building the run's objects and
names the offending dotted key."""

import inspect
import math

import pytest

from dampedeuler.config import ConfigError, resolve_config
from dampedeuler.diagnostics import SmallnessParams
from dampedeuler.dynamics import ICRecipe, SimConfig, preset_factories
from dampedeuler.elliptic import PressureSolveParams
from dampedeuler.fields import GridSpec
from dampedeuler.littlewood_paley import BesovIndex

NAN = math.nan


def sim(**overrides):
    base = dict(alpha=1.0, gamma=1, grid=GridSpec(n=32), dt=1e-3, t_end=0.01, ic=ICRecipe())
    return SimConfig(**{**base, **overrides})


# (config patch, dotted key the error must name, owner call that must raise
# ValueError on its own, or None where only the JSON check rejects the value)
RULES = [
    ({"physics": {"alpha": -1.0}}, "physics.alpha", lambda: sim(alpha=-1.0)),
    ({"physics": {"alpha": NAN}}, "physics.alpha", lambda: sim(alpha=NAN)),
    ({"physics": {"alpha": 10**400}}, "physics.alpha", None),
    ({"physics": {"gamma": 2}}, "physics.gamma", lambda: sim(gamma=2)),
    ({"physics": {"gamma": NAN}}, "physics.gamma", lambda: sim(gamma=NAN)),
    ({"time": {"dt": 0.0}}, "time.dt", lambda: sim(dt=0.0)),
    ({"time": {"t_end": -1.0}}, "time.t_end", lambda: sim(t_end=-1.0)),
    ({"time": {"t_end": NAN}}, "time.t_end", lambda: sim(t_end=NAN)),
    ({"time": {"record_every": 0}}, "time.record_every", lambda: sim(record_every=0)),
    ({"time": {"record_every": math.inf}}, "time.record_every", None),
    ({"grid": {"n": 48}}, "grid.n", lambda: GridSpec(n=48)),
    ({"grid": {"n": 4}}, "grid.n", lambda: GridSpec(n=4)),
    ({"grid": {"n": NAN}}, "grid.n", lambda: GridSpec(n=NAN)),
    ({"grid": {"dealias_fraction": 0.0}}, "grid.dealias_fraction",
     lambda: GridSpec(n=64, dealias_fraction=0.0)),
    ({"grid": {"dealias_fraction": 1.5}}, "grid.dealias_fraction",
     lambda: GridSpec(n=64, dealias_fraction=1.5)),
    ({"grid": {"n": 8, "dealias_fraction": 0.4}}, "grid.dealias_fraction",
     lambda: GridSpec(n=8, dealias_fraction=0.4)),
    ({"pressure": {"tol": 0.0}}, "pressure.tol", lambda: PressureSolveParams(tol=0.0)),
    ({"pressure": {"tol": NAN}}, "pressure.tol", lambda: PressureSolveParams(tol=NAN)),
    ({"pressure": {"max_iter": 0}}, "pressure.max_iter", lambda: PressureSolveParams(max_iter=0)),
    ({"track": {"besov_indices": [[1, 0.5, 1]]}}, "track.besov_indices[0]",
     lambda: BesovIndex(1.0, 0.5, 1.0)),
    ({"track": {"besov_indices": [[1, 2, 1], [1, 2, 0]]}}, "track.besov_indices[1]",
     lambda: BesovIndex(1.0, 2.0, 0.0)),
    ({"track": {"besov_indices": [[1, NAN, 2]]}}, "track.besov_indices[0]",
     lambda: BesovIndex(1.0, NAN, 2.0)),
    ({"track": {"besov_indices": [[NAN, 2, 2]]}}, "track.besov_indices[0]", None),
    ({"smallness": {"K": 0.0}}, "smallness.K", lambda: SmallnessParams(K=0.0)),
    ({"smallness": {"K": NAN}}, "smallness.K", lambda: SmallnessParams(K=NAN)),
    ({"smallness": {"eta": -1.0}}, "smallness.eta", lambda: SmallnessParams(eta=-1.0)),
    ({"smallness": {"delta": 0.0}}, "smallness.delta", lambda: SmallnessParams(delta=0.0)),
    ({"smallness": {"eta_2d": 5.0}}, "smallness.eta_2d", lambda: SmallnessParams(eta_2d=5.0)),
    ({"ic": {"u_preset": "nonsense"}}, "ic.u_preset",
     lambda: preset_factories(sim(ic=ICRecipe(u_preset="nonsense")))),
    ({"ic": {"rho_preset": "nonsense"}}, "ic.rho_preset",
     lambda: preset_factories(sim(ic=ICRecipe(rho_preset="nonsense")))),
    ({"ic": {"u_params": {"amp": 1.0}}}, "ic.u_params",
     lambda: preset_factories(sim(ic=ICRecipe(u_params={"amp": 1.0})))),
    ({"ic": {"rho_preset": "single_mode", "rho_params": {"width": 1.0}}}, "ic.rho_params",
     lambda: preset_factories(sim(ic=ICRecipe(rho_preset="single_mode",
                                              rho_params={"width": 1.0})))),
]


@pytest.mark.parametrize(
    "patch, key, owner", RULES, ids=[f"{i}-{key}" for i, (_, key, _) in enumerate(RULES)]
)
def test_rule_names_key_and_lives_in_its_owner(patch, key, owner):
    with pytest.raises(ConfigError) as info:
        resolve_config(patch)
    assert str(info.value).startswith(f"{key}:"), str(info.value)
    if owner is not None:
        with pytest.raises(ValueError):
            owner()


def test_whole_number_floats_reach_int_preset_parameters_as_ints():
    ic = ICRecipe(u_preset="random_shell", u_params={"j": 2.0, "amplitude": 1}, seed=3,
                  rho_preset="single_mode", rho_params={"k": 2.0})
    bound = {}
    for factory in preset_factories(sim(ic=ic)):
        args = inspect.signature(factory.func).bind(*factory.args, **factory.keywords).arguments
        bound.update((k, v) for k, v in args.items() if k != "grid")
    assert {k: (type(v), v) for k, v in bound.items()} == {
        "j": (int, 2), "amplitude": (float, 1.0), "seed": (int, 3), "k": (int, 2)}
