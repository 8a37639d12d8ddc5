import copy
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from dampedeuler import dynamics
from dampedeuler.config import build_sim_config, resolve_config
from dampedeuler.diagnostics import beta0, energy_balance_residual, initial_norms, make_record
from dampedeuler.dynamics import (
    FluidState,
    ICRecipe,
    InvariantViolation,
    SimConfig,
    SimulationResult,
    _Stepper,
    density_rhs,
    initial_state,
    momentum_rhs,
    pressure_gradient,
    rescaled_view,
    rho_gaussian_bump,
    rho_single_mode,
    run_simulation,
    solve_linear_transport,
    step_rk4,
    swirl,
    taylor_green,
    vorticity_forcing,
)
from dampedeuler.elliptic import PressureSolveError
from dampedeuler.fields import (
    TWO_PI,
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    Workspace,
    _half_tables,
    advect,
    curl2d,
    divergence,
    lp_norm,
)
from dampedeuler.littlewood_paley import build_filter_bank
from dampedeuler.verify import check_time_convergence

from conftest import bump_run_doc, count_transforms, fd_gradient6, traced_peak


def tg_config(alpha=0.5, gamma=1, n=64, dt=1e-3, t_end=1.0, amplitude=1.0, **kw):
    return SimConfig(
        alpha=alpha, gamma=gamma, grid=GridSpec(n=n), dt=dt, t_end=t_end,
        ic=ICRecipe(u_params={"amplitude": amplitude}), **kw,
    )


class TestTendencies:
    def test_zero_velocity_zero_tendency(self, grid64):
        cfg = tg_config()
        state = FluidState(
            t=0.0, rho=ScalarField.constant(grid64, 1.0), u=VectorField.zero(grid64),
            rho_bounds=(1.0, 1.0),
        )
        assert lp_norm(momentum_rhs(state, cfg), 2) == 0.0
        assert lp_norm(density_rhs(state), 2) == 0.0

    def test_cellular_vortex_decays_exactly(self, grid64):
        # steady Euler flow: pressure cancels advection, leaving -alpha u
        cfg = tg_config(alpha=0.5)
        state = initial_state(cfg)
        rhs = momentum_rhs(state, cfg)
        err = lp_norm(rhs + 0.5 * state.u, math.inf)
        assert err <= 1e-12

    def test_gamma_choice_irrelevant_for_uniform_density(self, grid64):
        for gamma in (0, 1):
            cfg = tg_config(alpha=0.7, gamma=gamma)
            state = initial_state(cfg)
            rhs = momentum_rhs(state, cfg)
            assert lp_norm(rhs + 0.7 * state.u, math.inf) <= 1e-12

    def test_density_translation(self, grid64):
        x, _ = grid64.nodes()
        u = VectorField.from_arrays(grid64, np.ones(grid64.shape), np.zeros(grid64.shape))
        rho = ScalarField.from_values(grid64, 1.0 + 0.1 * np.sin(x))
        state = FluidState(t=0.0, rho=rho, u=u, rho_bounds=(0.9, 1.1))
        out = density_rhs(state)
        assert np.abs(out.values + 0.1 * np.cos(x)).max() <= 1e-12


class TestStepping:
    def test_zero_field_stays_zero(self, grid64):
        cfg = tg_config()
        state = FluidState(
            t=0.0, rho=ScalarField.constant(grid64, 1.0), u=VectorField.zero(grid64),
            rho_bounds=(1.0, 1.0),
        )
        new = step_rk4(state, cfg)
        assert lp_norm(new.u, 2) == 0.0

    def test_one_step_matches_exponential(self, grid64):
        cfg = tg_config(alpha=0.5, dt=1e-3)
        state = initial_state(cfg)
        new = step_rk4(state, cfg)
        exact = state.u * math.exp(-0.5 * cfg.dt)
        assert lp_norm(new.u - exact, 2) <= 1e-12

    def test_undamped_vortex_is_stationary(self, grid64):
        cfg = tg_config(alpha=0.0, dt=1e-3)
        state = initial_state(cfg)
        new = step_rk4(state, cfg)
        assert lp_norm(new.u - state.u, 2) <= 1e-10

    def test_density_bound_violation_aborts(self, grid64):
        cfg = tg_config()
        rho = ScalarField.constant(grid64, 1.0)
        state = FluidState(
            t=0.0, rho=rho, u=initial_state(cfg).u, rho_bounds=(2.0, 3.0)
        )
        with pytest.raises(InvariantViolation):
            step_rk4(state, cfg)


class TestTimeConvergence:
    @pytest.mark.parametrize("contrast", [4.0, 100.0])
    @pytest.mark.parametrize("gamma", [0, 1])
    def test_rk4_self_convergence_at_variable_density(self, contrast, gamma):
        result = check_time_convergence(32, contrast=contrast, gamma=gamma)
        assert result.passed, result.detail
        # the bump of width 0.8 falls short of its nominal contrast
        measured = {4.0: "3.98", 100.0: "83.95"}[contrast]
        assert f"at initial contrast {measured} " in result.detail


class TestFailLoudly:
    def test_nan_velocity_fails_invariant_check(self, grid64):
        from dampedeuler.dynamics import _check_invariants

        state = initial_state(tg_config())
        vx = state.u.components[0].values.copy()
        vx[3, 5] = np.nan
        bad = VectorField.from_arrays(grid64, vx, state.u.components[1].values)
        work = Workspace(grid64, retained=True)
        u_hat = tuple(work.gather(c.spectrum, work.spectrum(f"u_{x}")) for c, x in zip(bad.components, "xy"))
        with pytest.raises(InvariantViolation, match="velocity not finite at t = 0.5"):
            _check_invariants(0.5, state.rho.values, u_hat, state.rho_bounds, work)

    @pytest.mark.parametrize("bad_value", [np.nan, 0.0])
    def test_bad_stage_density_is_an_invariant_violation(self, grid64, bad_value):
        cfg = tg_config()
        values = np.ones(grid64.shape)
        values[7, 2] = bad_value
        state = FluidState(
            t=0.25, rho=ScalarField.from_values(grid64, values), u=initial_state(cfg).u,
            rho_bounds=(1.0, 1.0),
        )
        with pytest.raises(InvariantViolation, match="density .* at t = 0.25"):
            step_rk4(state, cfg)

    def test_t_end_must_be_whole_number_of_steps(self, grid64):
        with pytest.raises(ValueError, match="t_end"):
            tg_config(dt=0.003, t_end=0.01)
        with pytest.raises(ValueError, match="t_end"):
            solve_linear_transport(
                lambda t: VectorField.zero(grid64), ScalarField.zero(grid64), t_end=0.01, dt=0.003
            )

    # (keyword arguments, parameter the error must name); each value is off
    # the step lattice: a non-finite or non-positive dt, a non-finite t_end,
    # or a record stride that is not a whole number >= 1. The SimConfig test
    # takes the first three; test_config covers its non-positive dt and
    # record_every.
    LATTICE = [
        (dict(dt=math.inf, t_end=1.0), "dt"),
        (dict(dt=0.1, t_end=math.inf), "t_end"),
        (dict(dt=0.1, t_end=1.0, record_every=1.5), "record_every"),
        (dict(dt=0.0, t_end=1.0), "dt"),
        (dict(dt=-0.1, t_end=1.0), "dt"),
        (dict(dt=0.1, t_end=1.0, record_every=0), "record_every"),
        (dict(dt=0.1, t_end=1.0, record_every=-1), "record_every"),
    ]

    @pytest.mark.parametrize("kwargs, name", LATTICE[:3])
    def test_sim_config_rejects_off_lattice(self, kwargs, name):
        with pytest.raises(ParameterError, match=f"^{name}: "):
            tg_config(**kwargs)

    @pytest.mark.parametrize("kwargs, name", LATTICE)
    def test_linear_transport_rejects_off_lattice(self, grid64, kwargs, name):
        with pytest.raises(ParameterError, match=f"^{name}: "):
            solve_linear_transport(
                lambda t: VectorField.zero(grid64), ScalarField.zero(grid64), **kwargs
            )


class TestTransformCount:
    """2-D real transforms in one RK4 step at n = 64, and no complex ones.
    These are the counts of the current design; lower them when a change
    saves transforms."""

    @pytest.mark.parametrize("gamma, ic, expected", [
        (1, ICRecipe(), 18),
        (0, ICRecipe(), 26),
        (0, ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2}), 182),
        # the bump_contrast4_n64 benchmark state, above the Concus-Golub crossover
        (0, ICRecipe(u_preset="random_shell", u_params={"j": 2, "amplitude": 0.25},
                     rho_preset="gaussian_bump", rho_params={"width": 0.8, "amplitude": 3.0}), 238),
    ], ids=["uniform", "uniform_gamma0", "single_mode", "bump_contrast4"])
    def test_transforms_per_step(self, monkeypatch, gamma, ic, expected):
        cfg = SimConfig(alpha=1.0, gamma=gamma, grid=GridSpec(n=64), dt=1e-3, t_end=1e-3, ic=ic)
        state = initial_state(cfg)
        assert count_transforms(monkeypatch, lambda: step_rk4(state, cfg)) == expected

    def test_transforms_per_run_loop_step_at_uniform_density(self, monkeypatch):
        # one pass of run_simulation's loop from a stepped state, a step with
        # the first stage it evaluates: every stage reads the held density
        # samples, so coefficient_bounds needs no inverse transform
        cfg = tg_config(n=64)
        stepper = _Stepper(cfg, initial_state(cfg))
        stepper.step()
        assert count_transforms(monkeypatch, stepper.step) == 20


class TestStepAllocations:
    """A run-loop step works in its stepper's workspace, on the state that
    the stepper holds there. At n = 64 it allocates less than one half
    spectrum at its peak, at a constant density or not: the new state's
    spectra and density samples are copied into the held ones, and a
    solve's potential stays in the workspace."""

    @pytest.mark.parametrize("doc", [
        {"physics": {"alpha": 0.5, "gamma": 1}, "grid": {"n": 64}, "time": {"dt": 1e-3, "t_end": 1.0}},
        bump_run_doc(3.0),
    ], ids=["uniform", "bump_contrast4"])
    def test_peak_is_a_few_half_spectra(self, doc):
        cfg = build_sim_config(resolve_config(doc))
        stepper = _Stepper(cfg, initial_state(cfg))
        for _ in range(3):  # the workspace and the guess history are built
            stepper.step()
        stepper.tendency()
        assert traced_peak(stepper.step) <= 64 * 33 * 16


class TestRunAllocations:
    """A run forms no state that it does not read: the initial norms come
    from the t = 0 record and the given state, and final_state is formed
    only when it is read. At n = 512 a 2-step uniform run with a record at
    each end peaks at about 17.1 half spectra, after a warm-up run has built
    the cached tables. A filter bank of whole half-lattice profiles took it
    to about 21.3, and a record's grid-size temporaries and the grad Pi of
    the t = 0 state to about 25.4."""

    def test_peak_at_n512(self):
        cfg = tg_config(n=512, t_end=2e-3, record_every=2)
        run_simulation(cfg)
        assert traced_peak(lambda: run_simulation(cfg)) <= 17.5 * 512 * 257 * 16


class TestLatticeCrossings:
    """A run gathers its initial state onto its stepper's lattice once and
    scatters a state only where one leaves the stepper, so its counts of
    Workspace.gather and Workspace.scatter calls do not grow with its steps
    or records. A retained forward transform gathers its own rows; those
    calls are not crossings and are not counted."""

    @pytest.mark.parametrize("ic", [
        ICRecipe(),
        ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2}),
    ], ids=["uniform", "single_mode"])
    def test_counts_do_not_grow_with_the_run(self, monkeypatch, ic):
        def crossings(n_steps):
            cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=16), dt=1e-3, t_end=n_steps * 1e-3, ic=ic)
            calls = dict.fromkeys(("gather", "scatter", "forward"), 0)
            for name in calls:
                def counted(work, *args, _name=name, _method=getattr(Workspace, name)):
                    calls[_name] += work.retained
                    return _method(work, *args)

                monkeypatch.setattr(Workspace, name, counted)
            result = run_simulation(cfg)
            monkeypatch.undo()
            assert not result.failed and len(result.records) == n_steps + 1
            return calls["gather"] - calls["forward"], calls["scatter"]

        assert crossings(2) == crossings(6)


class TestConstantDensityIsNotTransported:
    """density_rhs returns a zero in samples, without transport, when every
    sample of the density is equal; any other density is transported."""

    @staticmethod
    def state(grid, rho_values, u=None):
        u = initial_state(tg_config(n=grid.n)).u if u is None else u
        rho = ScalarField.from_values(grid, rho_values)
        return FluidState(t=0.0, rho=rho, u=u, rho_bounds=(rho_values.min(), rho_values.max()))

    def test_constant_density_gives_zero_samples(self, grid64):
        state = self.state(grid64, np.full(grid64.shape, 1.5))
        out = density_rhs(state)
        assert out._spectrum is None and out._values is not None
        assert not out.values.any()
        assert np.array_equal(out.values, (-advect(state.u, state.rho)).values)

    @pytest.mark.parametrize("perturbation", ["one_ulp", "cos_1e-15"])
    def test_nearly_constant_density_is_transported(self, grid64, perturbation):
        x, _ = grid64.nodes()
        values = np.ones(grid64.shape)
        if perturbation == "one_ulp":
            values[5, 9] = np.nextafter(1.0, 2.0)
        else:
            values += 1e-15 * np.cos(x)
        state = self.state(grid64, values)
        out = density_rhs(state)
        assert out.values.any()
        assert np.array_equal(out.values, (-advect(state.u, state.rho)).values)

    def test_uniform_step_makes_no_transport(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("density transported")

        monkeypatch.setattr(dynamics, "advect", refuse)
        cfg = tg_config(n=64)
        state = initial_state(cfg)
        assert np.array_equal(step_rk4(state, cfg).rho.values, state.rho.values)

    def test_non_finite_velocity_still_aborts(self, grid64):
        u = initial_state(tg_config(n=64)).u
        vx = u.components[0].values.copy()
        vx[3, 5] = np.nan
        u = VectorField.from_arrays(grid64, vx, u.components[1].values)
        state = self.state(grid64, np.ones(grid64.shape), u=u)
        with pytest.raises(PressureSolveError, match="pressure source not finite"):
            step_rk4(state, tg_config(n=64))


class TestUniformStep:
    """One step over a uniform density at n = 256, the planar gamma = 1 regime."""

    @pytest.fixture(scope="class")
    def uniform_n256(self):
        cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=256), dt=1e-3, t_end=1e-3, ic=ICRecipe())
        return cfg, initial_state(cfg)

    def test_makes_no_blas_call(self, monkeypatch, uniform_n256):
        # a threaded BLAS dot spins a helper thread above about 10^4 elements
        def refuse(*args, **kwargs):
            raise AssertionError("BLAS call in the stepping path")

        for name in ("vdot", "dot", "inner", "matmul"):
            monkeypatch.setattr(np, name, refuse)
        cfg, state = uniform_n256
        step_rk4(state, cfg)

    def test_density_samples_bitwise_unchanged(self, uniform_n256):
        # convective transport of a constant density: a zero tendency, bit for bit
        cfg, state = uniform_n256
        assert np.array_equal(step_rk4(state, cfg).rho.values, state.rho.values)

    def test_density_is_the_states_own_field(self, uniform_n256):
        cfg, state = uniform_n256
        assert step_rk4(state, cfg).rho is state.rho


class TestStepperReadsRetainedModes:
    """Of a state's spectra the stepper reads only the modes that the 2/3
    rule retains: a state whose spectra carry more steps as its dealiased
    copy does, bit for bit."""

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_modes_above_k_max_are_not_read(self, gamma):
        ic = ICRecipe(u_preset="random_shell", u_params={"j": 2, "amplitude": 0.25},
                      rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2})
        cfg = SimConfig(alpha=1.0, gamma=gamma, grid=GridSpec(n=32), dt=1e-3, t_end=1e-3, ic=ic)
        state = initial_state(cfg)
        rng = np.random.default_rng(gamma)
        high = ~_half_tables(cfg.grid).dealias_mask

        def polluted(f):
            junk = rng.standard_normal(high.shape) + 1j * rng.standard_normal(high.shape)
            return ScalarField(cfg.grid, values=f.values, spectrum=f.spectrum + junk * high)

        dirty = replace(state, rho=polluted(state.rho),
                        u=VectorField(polluted(c) for c in state.u.components))
        assert not np.array_equal(dirty.rho.spectrum, state.rho.spectrum)
        clean, other = step_rk4(state, cfg), step_rk4(dirty, cfg)
        for a, b in zip((clean.rho, *clean.u.components), (other.rho, *other.u.components)):
            assert a.spectrum.tobytes() == b.spectrum.tobytes()
            assert a.values.tobytes() == b.values.tobytes()


class TestRunSimulation:
    def test_zero_horizon_single_record(self):
        cfg = tg_config(t_end=0.0, n=32)
        res = run_simulation(cfg)
        assert not res.failed
        assert len(res.records) == 1
        assert res.records[0].t == 0.0

    def test_vortex_decay_over_horizon(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=2.0, record_every=10)
        res = run_simulation(cfg)
        r0, rN = res.records[0], res.records[-1]
        expected = math.exp(-0.5 * rN.t) * r0.l2_u
        assert abs(rN.l2_u - expected) / expected <= 1e-6

    def test_record_thinning(self):
        base = dict(alpha=0.5, n=32, dt=2e-3, t_end=1.0)
        rows = [len(run_simulation(tg_config(record_every=k, **base)).records) for k in (10, 20)]
        assert abs(rows[0] - 2 * rows[1]) <= 2

    def test_deterministic_records(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=0.5, record_every=5)
        a = run_simulation(cfg).records
        b = run_simulation(cfg).records
        assert a == b

    def test_random_shell_seed_determinism(self):
        ic = ICRecipe(u_preset="random_shell", u_params={"j": 2, "amplitude": 0.3}, seed=7)
        cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=2e-3, t_end=0.1, ic=ic)
        a = run_simulation(cfg).records
        b = run_simulation(cfg).records
        assert a == b

    @staticmethod
    def _records_config():
        ic = ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2})
        return SimConfig(alpha=0.5, gamma=0, grid=GridSpec(n=32), dt=2e-3, t_end=0.01, ic=ic,
                         record_every=2)

    def test_records_are_their_states_first_stage(self):
        # reference loop: one stepper carries the run's warm-start history
        # (last potential and stage increments) through the steps, and each
        # record solves its own pressure on a copy of it, so that the record's
        # solve starts from the same guess as its state's first stage; the
        # field-level make_record forms the row from the copy's state
        cfg = self._records_config()
        bank = build_filter_bank(cfg.grid)
        records, stepper = [], _Stepper(cfg, initial_state(cfg))
        for step in range(6):
            if step:
                stepper.step()
            if step % 2 == 0 or step == 5:
                record_solve = copy.deepcopy(stepper)
                record_solve.tendency()
                records.append(make_record(record_solve.state(), cfg, bank, records[-1] if records else None))
        assert len(records) == 4
        assert run_simulation(cfg).records == records

    def test_records_match_a_cold_record_solve(self):
        # reference loop from the public API: each record solves its own
        # pressure and each step its first stage, cold; the warm starts of
        # run_simulation change the answer only at the solve tolerance
        cfg = self._records_config()
        bank = build_filter_bank(cfg.grid)
        state = initial_state(cfg)
        records = []
        for step in range(6):
            if step:
                state = step_rk4(state, cfg)
            if step % 2 == 0 or step == 5:
                state = replace(state, grad_pi=pressure_gradient(state, cfg))
                records.append(make_record(state, cfg, bank, records[-1] if records else None))
        warm = run_simulation(cfg).records
        assert len(warm) == len(records) == 4
        for a, b in zip(warm, records):
            np.testing.assert_allclose(np.hstack(astuple(a)), np.hstack(astuple(b)), rtol=1e-9, atol=0)

    def test_failure_keeps_partial_records(self):
        # contrast 4 with a one-sweep iteration cap cannot converge
        ic = ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.6})
        from dampedeuler.elliptic import PressureSolveParams

        cfg = SimConfig(
            alpha=0.5, gamma=0, grid=GridSpec(n=32), dt=2e-3, t_end=1.0, ic=ic,
            pressure=PressureSolveParams(tol=1e-10, max_iter=1),
        )
        res = run_simulation(cfg)
        assert res.failed
        assert res.failure
        assert len(res.records) == 0  # fails in the very first record's solve

    def test_non_finite_record_is_a_failure_naming_its_column(self, monkeypatch):
        kernel = dynamics._record

        def overflowing(t, *args):
            record = kernel(t, *args)
            return replace(record, besov_grad_pi=(math.inf,)) if t > 0 else record

        monkeypatch.setattr(dynamics, "_record", overflowing)
        res = run_simulation(tg_config(alpha=0.5, n=32, dt=2e-3, t_end=0.01, record_every=2))
        assert res.failure == "diagnostics not finite at t = 0.004: besov_gradPi_0 = inf"
        assert len(res.records) == 1

    def test_failed_run_ends_on_its_last_good_state(self, monkeypatch):
        # step 3, or step 1, fails its invariants, after its RK4 sum: the run
        # ends on the state of the step before, as a run cut there does; a
        # run cut at t = 0 ends on the initial state
        cfg = self._records_config()
        check = dynamics._check_invariants
        for failing_step, t_cut in ((3, 0.004), (1, 0.0)):
            calls = []

            def failing(*args):
                calls.append(args)
                if len(calls) == failing_step:
                    raise InvariantViolation("injected")
                check(*args)

            monkeypatch.setattr(dynamics, "_check_invariants", failing)
            failed = run_simulation(cfg)
            monkeypatch.undo()
            assert failed.failure == "injected"
            cut = run_simulation(replace(cfg, t_end=t_cut)).final_state
            last = failed.final_state
            assert last.t.hex() == cut.t.hex() == t_cut.hex()
            states = [last, cut] + ([initial_state(cfg)] if failing_step == 1 else [])
            for fields in zip(*((s.rho, *s.u.components) for s in states)):
                assert len({f.spectrum.tobytes() for f in fields}) == 1
                assert len({f.values.tobytes() for f in fields}) == 1

    def test_failed_is_read_from_failure(self):
        assert SimulationResult([], None, None, failure="stalled").failed
        assert not SimulationResult([], None, None).failed

    def test_cfl_warning(self):
        with pytest.warns(UserWarning, match="CFL"):
            initial_state(tg_config(n=64, dt=0.2, amplitude=1.0))


class TestRecordOnTheRunWorkspace:
    """run_simulation makes each record on its stepper's workspace, from the
    first stage of the state that the stepper holds."""

    # a density that varies, and L^p norms of blocks at p = 1, 2, 3 and inf
    DOC = {
        "physics": {"alpha": 1.0, "gamma": 0},
        "grid": {"n": 32},
        "time": {"dt": 5e-3, "t_end": 0.02},
        "ic": {"u_preset": "random_shell", "u_params": {"j": 2, "amplitude": 0.25},
               "rho_preset": "single_mode", "rho_params": {"k": 1, "amplitude": 0.05}},
        "track": {"besov_indices": [[1, "inf", 1], [0, 2, 2], [0.5, 1, 1], [1, 3, 2]]},
    }

    @pytest.mark.parametrize("rho_preset", ["single_mode", "constant"])
    def test_recording_leaves_the_steps_unchanged(self, rho_preset):
        doc = copy.deepcopy(self.DOC)
        if rho_preset == "constant":
            doc["ic"].update(rho_preset="constant", rho_params={})
        cfg = build_sim_config(resolve_config(doc))
        bank = build_filter_bank(cfg.grid)
        runs = []
        for record in (False, True):
            stepper, prev = _Stepper(cfg, initial_state(cfg)), None
            for _ in range(4):
                if record:
                    prev = stepper.record(bank, prev)
                stepper.step()
            runs.append((stepper.state(), stepper.telemetry()))
        (plain, counts), (recorded, recorded_counts) = runs
        assert counts == recorded_counts
        for a, b in zip((plain.rho, *plain.u.components), (recorded.rho, *recorded.u.components)):
            assert a.spectrum.tobytes() == b.spectrum.tobytes()

    @pytest.mark.parametrize("rho_preset", ["single_mode", "constant"])
    def test_a_second_record_of_a_state_reads_the_same_row(self, rho_preset):
        # a record overwrites the velocity samples that the stepper formed;
        # a second record of the same state forms them again
        doc = copy.deepcopy(self.DOC)
        if rho_preset == "constant":
            doc["ic"].update(rho_preset="constant", rho_params={})
        cfg = build_sim_config(resolve_config(doc))
        bank = build_filter_bank(cfg.grid)
        stepper = _Stepper(cfg, initial_state(cfg))
        for _ in range(3):  # the given state, then stepped ones
            rows = [np.array(stepper.record(bank, None).row()).tobytes() for _ in range(3)]
            assert rows[0] == rows[1] == rows[2]
            stepper.step()

    def test_record_does_not_depend_on_cached_samples(self):
        # l2_u and energy come from the velocity samples, whether the state
        # held them or not; an L^2 norm by Parseval differs in the last bits
        cfg = build_sim_config(resolve_config(self.DOC))
        stepper = _Stepper(cfg, initial_state(cfg))
        stepper.step()
        state = stepper.state()
        state = replace(state, grad_pi=pressure_gradient(state, cfg))
        bank = build_filter_bank(cfg.grid)
        rows = []
        for cached in (False, True):
            u = VectorField(ScalarField(cfg.grid, spectrum=c.spectrum) for c in state.u.components)
            if cached:
                for c in u.components:
                    c.values
            rows.append(np.array(make_record(replace(state, u=u), cfg, bank, None).row()).tobytes())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("indices", [[[1, "inf", 1]], [[0, 2, 2]]], ids=["b1_tracked", "b1_not_tracked"])
    def test_initial_norms_are_those_of_the_initial_state(self, indices):
        # read from the t = 0 record, or formed on the run's workspace when
        # the record does not track B1: the bits of a pass on the fields
        doc = copy.deepcopy(self.DOC)
        doc["track"]["besov_indices"] = indices
        cfg = build_sim_config(resolve_config(doc))
        direct = initial_norms(initial_state(cfg), build_filter_bank(cfg.grid))
        assert [x.hex() for x in astuple(run_simulation(cfg).initial_norms)] == [x.hex() for x in astuple(direct)]


class TestRescaledView:
    def test_zero_beta_is_identity(self, grid64):
        cfg = tg_config()
        state = initial_state(cfg)
        state = FluidState(
            t=2.0, rho=state.rho, u=state.u,
            grad_pi=pressure_gradient(state, cfg), rho_bounds=state.rho_bounds,
        )
        u_r, g_r = rescaled_view(state, 0.0)
        assert lp_norm(u_r - state.u, 2) == 0.0
        assert lp_norm(g_r - state.grad_pi, 2) == 0.0

    def test_time_zero_is_identity(self, grid64):
        cfg = tg_config()
        state = initial_state(cfg)
        state = FluidState(
            t=0.0, rho=state.rho, u=state.u,
            grad_pi=pressure_gradient(state, cfg), rho_bounds=state.rho_bounds,
        )
        u_r, _ = rescaled_view(state, 3.0)
        assert lp_norm(u_r - state.u, 2) == 0.0

    def test_compensated_norm_constant_for_vortex(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=2.0, record_every=20)
        res = run_simulation(cfg)
        vals = [math.exp(0.5 * r.t) * r.l2_u for r in res.records]
        assert max(vals) / min(vals) <= 1.0 + 1e-6

    def test_requires_pressure_cache(self, grid64):
        state = initial_state(tg_config())
        with pytest.raises(ValueError):
            rescaled_view(state, 1.0)


class TestLinearTransport:
    def test_zero_velocity_keeps_data(self, grid64):
        x, _ = grid64.nodes()
        f0 = ScalarField.from_values(grid64, np.sin(x))
        traj = solve_linear_transport(
            lambda t: VectorField.zero(grid64), f0, None, t_end=1.0, dt=0.05
        )
        assert lp_norm(traj[-1][1] - f0, math.inf) <= 1e-13

    def test_constants_are_transported(self, grid64):
        v = swirl(grid64, 1.0)
        f0 = ScalarField.constant(grid64, 2.0)
        traj = solve_linear_transport(lambda t: v, f0, None, t_end=1.0, dt=0.05)
        assert lp_norm(traj[-1][1] - f0, math.inf) <= 1e-12

    def test_l2_conserved_under_swirl(self):
        grid = GridSpec(n=128)
        x, y = grid.nodes()
        dsq = 4 * np.sin((x - 1.0) / 2) ** 2 + 4 * np.sin((y - 0.5) / 2) ** 2
        f0 = ScalarField.from_values(grid, np.exp(-dsq / (2 * 0.8**2)))
        traj = solve_linear_transport(
            lambda t: swirl(grid, 1.0), f0, None, t_end=2.0, dt=0.005, record_every=100
        )
        l0 = lp_norm(traj[0][1], 2)
        drift = abs(lp_norm(traj[-1][1], 2) - l0) / l0 / 2.0
        assert drift <= 1e-8

    def test_forcing_accumulates(self, grid64):
        forcing = ScalarField.constant(grid64, 1.0)
        f0 = ScalarField.zero(grid64)
        traj = solve_linear_transport(
            lambda t: VectorField.zero(grid64), f0, lambda t: forcing, t_end=1.0, dt=0.05
        )
        assert lp_norm(traj[-1][1] - ScalarField.constant(grid64, 1.0), math.inf) <= 1e-12


class TestVorticityForcing:
    def test_uniform_density_gives_zero(self, grid64):
        cfg = tg_config(alpha=0.5)
        state = initial_state(cfg)
        out = vorticity_forcing(state, cfg)
        assert lp_norm(out, math.inf) == 0.0

    def test_zero_pressure_gives_zero(self, grid64):
        rho = rho_single_mode(grid64, k=1, amplitude=0.2)
        state = FluidState(
            t=0.0, rho=rho, u=VectorField.zero(grid64),
            grad_pi=VectorField.zero(grid64), rho_bounds=(0.8, 1.2),
        )
        out = vorticity_forcing(state, tg_config(alpha=0.5))
        assert lp_norm(out, math.inf) == 0.0

    def test_matches_finite_difference_oracle(self, grid64):
        cfg = tg_config(alpha=0.5)
        base = initial_state(cfg)
        rho = rho_single_mode(grid64, k=1, amplitude=0.2)
        state = FluidState(t=0.3, rho=rho, u=base.u, rho_bounds=(0.8, 1.2))
        grad_pi = pressure_gradient(state, cfg)
        state = FluidState(
            t=0.3, rho=rho, u=base.u, grad_pi=grad_pi, rho_bounds=(0.8, 1.2)
        )
        out = vorticity_forcing(state, cfg)

        inv_rho = 1.0 / rho.values
        scale = math.exp(cfg.alpha * state.t)
        px = fd_gradient6(inv_rho, TWO_PI, 0)
        py = fd_gradient6(inv_rho, TWO_PI, 1)
        oracle = -scale * (
            -py * grad_pi.components[0].values + px * grad_pi.components[1].values
        )
        assert np.abs(out.values - oracle).max() <= 1e-6


class TestConservationLaws:
    def test_energy_balance_uniform_density(self):
        cfg = tg_config(alpha=0.5, n=32, dt=1e-3, t_end=1.0, record_every=1)
        res = run_simulation(cfg)
        assert energy_balance_residual(res.records, gamma=1, alpha=0.5) <= 1e-6

    def test_compensated_energy_constant_gamma1(self):
        # with gamma = 1 the weighted energy of the compensated velocity is
        # an exact invariant, uniform density or not
        ic = ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.1})
        cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=2e-3, t_end=2.0,
                        ic=ic, record_every=20)
        res = run_simulation(cfg)
        weighted = [
            math.exp(0.5 * r.t) * math.sqrt(2.0 * r.energy) for r in res.records
        ]
        assert max(weighted) / min(weighted) <= 1.0 + 1e-6

    def test_vorticity_l2_constant_for_uniform_density(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=2.0)
        state = initial_state(cfg)
        w0 = lp_norm(curl2d(state.u), 2)
        steps = int(round(cfg.t_end / cfg.dt))
        for _ in range(steps):
            state = step_rk4(state, cfg)
        wT = lp_norm(curl2d(state.u), 2) * math.exp(0.5 * state.t)
        assert abs(wT - w0) / w0 <= 1e-6

    def test_gamma0_decay_beats_guaranteed_rate(self):
        # small-data run satisfying both gamma = 0 conditions at K = 1
        ic = ICRecipe(u_params={"amplitude": 0.2},
                      rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2})
        cfg = SimConfig(alpha=1.0, gamma=0, grid=GridSpec(n=32), dt=2e-3, t_end=2.0,
                        ic=ic, record_every=5)
        res = run_simulation(cfg)
        series = [(r.t, r.l2_u + r.besov_u[0]) for r in res.records]
        from dampedeuler.diagnostics import fit_decay_rate

        fit = fit_decay_rate(series)
        guaranteed = beta0(alpha=1.0, rho_upper=1.2, s=1.0, d=2, delta=0.01)
        assert fit.rate >= 0.9 * guaranteed


class TestPresets:
    def test_gaussian_bump_positive(self, grid64):
        rho = rho_gaussian_bump(grid64, width=0.5, amplitude=-0.5)
        assert rho.values.min() > 0.0

    def test_single_mode_amplitude_guard(self, grid64):
        with pytest.raises(ValueError):
            rho_single_mode(grid64, k=1, amplitude=1.0)

    def test_unknown_preset_rejected(self):
        cfg = SimConfig(
            alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=1e-3, t_end=0.1,
            ic=ICRecipe(u_preset="nonsense"),
        )
        with pytest.raises(ValueError):
            initial_state(cfg)

    def test_taylor_green_is_divergence_free(self, grid64):
        for u in (taylor_green(grid64), swirl(grid64)):
            assert lp_norm(divergence(u), 2) <= 1e-12 * lp_norm(u, 2)

    def test_random_shell_lands_in_shell(self):
        from dampedeuler.dynamics import random_shell
        from dampedeuler.littlewood_paley import dyadic_block

        grid = GridSpec(n=64)
        bank = build_filter_bank(grid)
        u = random_shell(grid, j=2, amplitude=0.5, seed=3)
        assert lp_norm(u, 2) == pytest.approx(0.5, rel=1e-9)
        for j in bank.block_indices():
            if abs(j - 2) >= 2:
                blocked = VectorField(
                    tuple(dyadic_block(bank, c, j) for c in u.components)
                )
                assert lp_norm(blocked, 2) <= 1e-12
