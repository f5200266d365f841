import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.manifold import (ArmijoParams, ArmijoResult, LineSearchError, RetractionError,
                              armijo_search, euclidean_cg_minimize,
                              is_unit_modulus, project_tangent,
                              random_unit_modulus, rcg_minimize, real_inner,
                              retract)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _point(n, seed=0):
    return random_unit_modulus(n, _rng(seed))


complex_vectors = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                          allow_infinity=False),
                       min_size=n, max_size=n))


class TestProjection:
    def test_radial_direction_annihilated(self):
        theta = _point(6)
        np.testing.assert_allclose(project_tangent(theta, theta), 0.0, atol=1e-14)

    def test_rotational_direction_unchanged(self):
        theta = _point(6, seed=1)
        np.testing.assert_allclose(project_tangent(theta, 1j * theta), 1j * theta,
                                   atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(complex_vectors, st.integers(0, 2 ** 31 - 1))
    def test_idempotent_and_tangent(self, d, seed):
        d = np.asarray(d)
        theta = _point(len(d), seed)
        once = project_tangent(theta, d)
        twice = project_tangent(theta, once)
        scale = max(1.0, np.max(np.abs(d)))
        assert np.max(np.abs(once - twice)) < 1e-12 * scale
        assert np.max(np.abs((once * theta.conj()).real)) < 1e-10 * scale

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project_tangent(_point(3), np.zeros(4, complex))


class TestRetraction:
    def test_fixed_point_on_manifold(self):
        theta = _point(5, seed=2)
        np.testing.assert_allclose(retract(theta), theta, atol=1e-15)

    def test_normalizes(self):
        np.testing.assert_allclose(retract(np.array([2.0, -3.0j])),
                                   np.array([1.0, -1.0j]), atol=1e-15)

    def test_zero_entry_rejected(self):
        with pytest.raises(RetractionError):
            retract(np.array([1.0, 0.0j]))

    @settings(max_examples=40, deadline=None)
    @given(complex_vectors)
    def test_unit_modulus_output(self, x):
        x = np.asarray(x)
        if np.any(np.abs(x) < 1e-12):
            return
        assert is_unit_modulus(retract(x), atol=1e-12)


class TestRiemannianGradient:
    # the Riemannian gradient is the tangent projection of the Euclidean one
    def test_tangent_input_passthrough(self):
        theta = _point(4, seed=3)
        g = 1j * theta * np.array([0.5, -2.0, 0.1, 3.0])  # entrywise tangent
        np.testing.assert_allclose(project_tangent(theta, g), g, atol=1e-13)

    def test_zero_gradient(self):
        theta = _point(4, seed=4)
        np.testing.assert_allclose(project_tangent(theta, np.zeros(4, complex)),
                                   0.0, atol=1e-15)

    def test_tangency_invariant(self):
        rng = _rng(5)
        theta = random_unit_modulus(16, rng)
        g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rg = project_tangent(theta, g)
        assert np.max(np.abs((rg * theta.conj()).real)) < 1e-10


def _quadratic(target):
    def cost(x):
        return float(np.sum(np.abs(x - target) ** 2))

    def grad(x):
        return x - target

    return cost, grad


class TestArmijo:
    def test_quadratic_accepts_early(self):
        target = _point(2, seed=6)
        theta = _point(2, seed=7)
        cost, grad = _quadratic(target)
        g = project_tangent(theta, grad(theta))
        res = armijo_search(cost, theta, -g, g)
        assert res.step in (1.0, 0.5)
        assert res.cost < cost(theta)

    def test_zero_direction_trivially_accepted(self):
        theta = _point(3, seed=8)
        cost, grad = _quadratic(_point(3, seed=9))
        g = project_tangent(theta, grad(theta))
        res = armijo_search(cost, theta, np.zeros(3, complex), g)
        assert res.step == 1.0
        assert res.cost == cost(theta)

    def test_ascent_direction_rejected(self):
        theta = _point(3, seed=10)
        cost, grad = _quadratic(_point(3, seed=11))
        g = project_tangent(theta, grad(theta))
        with pytest.raises(ValueError):
            armijo_search(cost, theta, +g, g)

    def test_halving_budget_exhaustion(self):
        theta = _point(2, seed=12)
        d = project_tangent(theta, 1j * theta)
        fake_grad = d  # claims descent along -d
        calls = {"n": 0}

        def hostile_cost(x):
            calls["n"] += 1
            return float(calls["n"])  # strictly increasing, never acceptable

        with pytest.raises(LineSearchError):
            armijo_search(hostile_cost, theta, -d, fake_grad,
                          ArmijoParams(max_halvings=10), cost_at_base=0.0)


    @staticmethod
    def _every_trial(cost, base, direction, grad, params, j0):
        """Armijo backtracking that retracts and costs every trial step."""
        slope = real_inner(grad, direction)
        step = params.initial_step
        for halvings in range(params.max_halvings + 1):
            try:
                candidate = retract(base + step * direction)
            except RetractionError:
                step *= params.contraction
                continue
            jc = cost(candidate)
            if j0 - jc >= -params.sufficient_decrease * step * slope:
                return ArmijoResult(step, candidate, jc, halvings)
            step *= params.contraction
        raise LineSearchError("budget spent")

    @staticmethod
    def _counted(cost):
        calls = []

        def counted(x):
            calls.append(None)
            return cost(x)
        return counted, calls

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("first_step", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_skipped_trials_change_no_result(self, seed, first_step):
        # a long descent direction needs many halvings, and the first ones
        # ask for more decrease than the whole nonnegative cost
        theta = _point(6, seed=seed)
        cost, grad = _quadratic(_point(6, seed=seed + 100))
        g = project_tangent(theta, grad(theta))
        params = ArmijoParams(initial_step=first_step)
        j0 = cost(theta)
        searched, calls = self._counted(cost)
        res = armijo_search(searched, theta, -1e6 * g, g, params, cost_at_base=j0)
        every, every_calls = self._counted(cost)
        ref = self._every_trial(every, theta, -1e6 * g, g, params, j0)
        assert (res.step, res.cost, res.halvings) == (ref.step, ref.cost, ref.halvings)
        np.testing.assert_array_equal(res.point, ref.point)
        assert len(calls) <= len(every_calls)
        if first_step == 1.0:
            assert len(calls) < len(every_calls)

    def test_negative_base_cost_costs_every_trial(self):
        theta = _point(6, seed=30)
        quadratic, grad = _quadratic(_point(6, seed=31))

        def cost(x):
            return quadratic(x) - 100.0

        g = project_tangent(theta, grad(theta))
        searched, calls = self._counted(cost)
        res = armijo_search(searched, theta, -1e6 * g, g, cost_at_base=cost(theta))
        ref = self._every_trial(cost, theta, -1e6 * g, g, ArmijoParams(), cost(theta))
        assert (res.step, res.cost, res.halvings) == (ref.step, ref.cost, ref.halvings)
        assert res.halvings > 0 and len(calls) == res.halvings + 1

    def test_skipped_trials_spend_the_budget(self):
        # with a zero base cost every trial asks for more decrease than a
        # nonnegative cost can give: max_halvings + 1 skips, then failure
        theta = _point(4, seed=32)
        cost, grad = _quadratic(theta)
        g = project_tangent(theta, 1j * theta)
        searched, calls = self._counted(cost)
        with pytest.raises(LineSearchError):
            armijo_search(searched, theta, -g, g, ArmijoParams(max_halvings=7),
                          cost_at_base=0.0)
        assert calls == []
        # a budget one trial short of the accepted step fails, though it
        # costed fewer trials than it spent
        theta = _point(6, seed=33)
        cost, grad = _quadratic(_point(6, seed=34))
        g = project_tangent(theta, grad(theta))
        n = armijo_search(cost, theta, -1e6 * g, g).halvings
        searched, calls = self._counted(cost)
        with pytest.raises(LineSearchError):
            armijo_search(searched, theta, -1e6 * g, g, ArmijoParams(max_halvings=n - 1),
                          cost_at_base=cost(theta))
        assert 0 < len(calls) < n


def _scripted_searches(monkeypatch, script):
    """Replace the CG's Armijo search: search i backtracks ``script[i]``
    times from its first step and is accepted, or fails when that entry is
    None. Returns the log of (first step, along -g) of every search."""
    import risbeam.manifold as manifold

    script = iter(script)
    searches = []

    def scripted_search(cost, base, direction, grad, params, retraction, **_):
        halvings = next(script)
        searches.append((params.initial_step, np.array_equal(direction, -grad)))
        if halvings is None:
            raise LineSearchError("scripted failure")
        step = params.initial_step * params.contraction ** halvings
        point = retraction(base + step * direction)
        return manifold.ArmijoResult(step=step, point=point, cost=cost(point), halvings=halvings)

    monkeypatch.setattr(manifold, "armijo_search", scripted_search)
    return searches


def _scripted_problem():
    """Cost, gradient and start of the scripted-search tests: a start whose
    second direction is not steepest descent."""
    rng = _rng(21)
    cost, grad = _quadratic(random_unit_modulus(12, rng))
    return cost, grad, random_unit_modulus(12, rng)


class TestRcg:
    def test_zero_gradient_start_returns_immediately(self):
        theta = _point(5, seed=13)
        cost, grad = _quadratic(theta)
        res = rcg_minimize(cost, grad, theta)
        assert len(res.cost_trace) == 1
        assert res.iterations == 0
        np.testing.assert_allclose(res.point, theta)

    def test_phase_matching_beats_brute_force_grid(self):
        # maximize |a^H diag(theta) b| over two phases; exhaustive 360x360
        # grid is the independent optimum oracle
        rng = _rng(14)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = a.conj() * b

        def cost(th):
            return -abs(np.sum(c * th))

        def grad(th):
            s = np.sum(c * th)
            return -0.5 * s * c.conj() / max(abs(s), 1e-300)

        res = rcg_minimize(cost, grad, random_unit_modulus(2, rng),
                           grad_tol=1e-9, cost_tol=1e-14)
        ph = np.exp(1j * np.deg2rad(np.arange(360)))
        grid_best = float(np.min(-np.abs(np.add.outer(c[0] * ph, c[1] * ph))))
        assert res.final_cost <= grid_best + 1e-6
        # analytic optimum: aligned phases collect sum of magnitudes
        assert res.final_cost == pytest.approx(-np.sum(np.abs(c)), abs=1e-6)

    def test_trace_monotone_and_iterates_feasible(self):
        rng = _rng(15)
        target = random_unit_modulus(12, rng)
        cost, grad = _quadratic(target)
        seen = []

        def recording_grad(x):
            seen.append(x.copy())
            return grad(x)

        res = rcg_minimize(cost, recording_grad, random_unit_modulus(12, rng))
        assert np.all(np.diff(res.cost_trace) <= 1e-12)
        for x in seen:
            assert is_unit_modulus(x, atol=1e-12)
            rg = project_tangent(x, grad(x))
            assert np.max(np.abs((rg * x.conj()).real)) < 1e-10
        assert res.status in ("gradient_tolerance", "cost_tolerance")
        assert res.final_cost < 1e-8

    def test_warm_started_searches(self, monkeypatch):
        # a steep cost accepts steps far below q, so later searches start
        # from the previous accepted step instead of halving down from q
        import risbeam.manifold as manifold

        searches = []
        true_search = manifold.armijo_search

        def recording_search(cost, base, direction, grad, params, **kwargs):
            res = true_search(cost, base, direction, grad, params, **kwargs)
            searches.append((params.initial_step, res.step))
            return res

        monkeypatch.setattr(manifold, "armijo_search", recording_search)
        rng = _rng(18)
        target = random_unit_modulus(12, rng)
        cost, grad = _quadratic(target)
        q = ArmijoParams().initial_step
        calls = []

        def steep_cost(x):
            calls.append(None)
            return 1e3 * cost(x)

        res = rcg_minimize(steep_cost, lambda x: 1e3 * grad(x),
                           random_unit_modulus(12, rng), max_iters=40)
        assert res.cost_evals == len(calls)
        assert len(searches) == res.iterations > 1
        assert searches[0][0] == q
        # a first-trial acceptance doubles the step (capped at q); a
        # backtracked search hands its accepted step on unchanged
        for (first, step), (start, _) in zip(searches, searches[1:]):
            assert start == (min(q, 2.0 * step) if step == first else step)
        # both branches of the rule are taken
        assert any(step == first for first, step in searches[:-1])
        assert any(step < first for first, step in searches[:-1])
        assert np.all(np.diff(res.cost_trace) <= 0.0)

    def test_retry_after_failed_warm_search_starts_at_q(self, monkeypatch):
        # scripted searches: the second search fails, its steepest-descent
        # retry starts at q and backtracks three times to the failed warm
        # start q/8; measured against q that is a backtrack, so the next
        # search starts at q/8, not at 2 * q/8
        q = ArmijoParams().initial_step
        searches = _scripted_searches(monkeypatch, [3, None, 3, 0, 0])
        cost, grad, theta0 = _scripted_problem()
        res = rcg_minimize(cost, grad, theta0, max_iters=4, grad_tol=0.0, cost_tol=-np.inf)
        assert res.iterations == 4
        starts = [start for start, _ in searches]
        assert starts == [q, q / 8, q, q / 8, q / 4]
        # the start point, then one trial per accepted search; the failed
        # search evaluated nothing
        assert res.cost_evals == 5
        # the failed search ran along a conjugate direction, its retry along -g
        assert not searches[1][1] and searches[2][1]

    def test_failed_steepest_descent_search_stalls_without_retry(self, monkeypatch):
        # the first direction is -g, so its failure has nothing to retry
        q = ArmijoParams().initial_step
        searches = _scripted_searches(monkeypatch, [None])
        cost, grad, theta0 = _scripted_problem()
        res = rcg_minimize(cost, grad, theta0, max_iters=4, grad_tol=0.0, cost_tol=-np.inf)
        assert res.status == "line_search_stalled"
        np.testing.assert_array_equal(res.cost_trace, [cost(theta0)])
        assert res.iterations == 0 and res.cost_evals == 1
        assert searches == [(q, True)]
        np.testing.assert_array_equal(res.point, theta0)

    def test_failed_retry_stalls(self, monkeypatch):
        # one accepted search at q/8, then a failed warm search along a
        # conjugate direction and a failed steepest-descent retry from q
        q = ArmijoParams().initial_step
        searches = _scripted_searches(monkeypatch, [3, None, None])
        cost, grad, theta0 = _scripted_problem()
        res = rcg_minimize(cost, grad, theta0, max_iters=4, grad_tol=0.0, cost_tol=-np.inf)
        theta1 = retract(theta0 - q / 8 * project_tangent(theta0, grad(theta0)))
        assert res.status == "line_search_stalled"
        np.testing.assert_array_equal(res.cost_trace, [cost(theta0), cost(theta1)])
        assert res.iterations == 1 and res.cost_evals == 2
        assert searches == [(q, True), (q / 8, False), (q, True)]
        np.testing.assert_array_equal(res.point, theta1)

    def test_zero_iteration_cap(self, monkeypatch):
        searches = _scripted_searches(monkeypatch, [])
        cost, grad, theta0 = _scripted_problem()
        res = rcg_minimize(cost, grad, theta0, max_iters=0, grad_tol=0.0, cost_tol=-np.inf)
        assert res.status == "max_iterations"
        np.testing.assert_array_equal(res.cost_trace, [cost(theta0)])
        assert res.iterations == 0 and res.cost_evals == 1
        assert searches == []

    def test_off_manifold_start_rejected(self):
        cost, grad = _quadratic(_point(3))
        with pytest.raises(ValueError):
            rcg_minimize(cost, grad, np.array([2.0, 1.0, 1.0], dtype=complex))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_quartic_costs_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = h @ h.conj().T / n

        def cost(x):
            q = float((x.conj() @ h @ x).real)
            return q * q

        def grad(x):
            q = float((x.conj() @ h @ x).real)
            return 2.0 * q * (h @ x)

        res = rcg_minimize(cost, grad, random_unit_modulus(n, rng), max_iters=60)
        assert np.all(np.diff(res.cost_trace) <= 1e-9 * max(1.0, res.cost_trace[0]))


class TestEuclideanCg:
    def test_least_squares_toy(self):
        rng = _rng(16)
        a = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)

        def cost(x):
            return float(np.sum(np.abs(a @ x - y) ** 2))

        def grad(x):
            return a.conj().T @ (a @ x - y)

        x0 = np.zeros(4, dtype=complex)
        res = euclidean_cg_minimize(cost, grad, x0, max_iters=400,
                                    grad_tol=1e-10, cost_tol=1e-15)
        x_star, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert cost(res.point) <= cost(x_star) + 1e-8
        assert np.all(np.diff(res.cost_trace) <= 1e-12)

    def test_matrix_variable(self):
        rng = _rng(17)
        target = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))

        def cost(x):
            return float(np.sum(np.abs(x - target) ** 2))

        def grad(x):
            return x - target

        res = euclidean_cg_minimize(cost, grad, np.zeros((3, 2), complex))
        np.testing.assert_allclose(res.point, target, atol=1e-6)


class TestInnerProduct:
    @settings(max_examples=30, deadline=None)
    @given(complex_vectors)
    def test_matches_componentwise_definition(self, v):
        v = np.asarray(v)
        w = np.roll(v, 1) + 0.5
        expected = float(np.sum((v.conj() * w).real))
        assert real_inner(v, w) == pytest.approx(expected, rel=1e-12, abs=1e-12)
