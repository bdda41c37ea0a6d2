import dataclasses
import warnings
from typing import NamedTuple

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcr.errors import ShapeMismatchError, ValidationError
from dcr.guidance import (GuidanceConfig, GuidanceUpdate, NoisePrediction,
                          StepPosition, _guided_rows, _step_diagnostics,
                          attractor_drift, attractor_drift_expanded, cfg_update,
                          collinearity_residual, corrected_update,
                          dcr_guided_prediction, probe_prediction,
                          repulsion_coefficient, schedule_alpha, target_prediction)
from oracles import (np_cfg_update, np_corrected_update, np_drift_expanded,
                     np_guided_step, scalar_chain, scalar_scale_diff)

NP = NoisePrediction.from_array


def G(values):
    a = np.asarray(values, dtype=np.float64)
    return GuidanceUpdate(values=a.reshape(-1), shape=a.shape)


def cfg(**kw):
    base = dict(w=6.0, w_attr=3.0, eta=1.0, gamma=2.0, r_s=0.2, r_e=0.8,
                eps_stab=1e-8)
    base.update(kw)
    return GuidanceConfig(**base)


class Rows(NamedTuple):
    """One row-wise step: eps_star (N, D) and its per-row diagnostics (N,)."""

    eps_star: np.ndarray
    s_t: np.ndarray
    n_t: np.ndarray
    lambda_t: np.ndarray
    residual: np.ndarray


def guided_rows(e_neg, e_text, e_attr, alpha, g, repel=True, probe=True) -> Rows:
    """The row-wise step as the sampling loop runs it: ``_guided_rows``, then
    ``_step_diagnostics`` with the same probe mask. ``repel`` and ``probe``
    are per-row boolean arrays, or one bool for every row."""
    repel, probe = flag(len(e_neg), repel), flag(len(e_neg), probe)
    eps_star, lambda_t, s_t, drift, delta_ref = _guided_rows(
        e_neg, e_text, e_attr, np.asarray(alpha), g, repel, probe)
    s_t, n_t, residual = _step_diagnostics(drift, delta_ref, s_t, probe, g)
    return Rows(eps_star, s_t, n_t, lambda_t, residual)


def flag(n: int, on) -> np.ndarray:
    """A switch as the loop passes it, a boolean array of the n rows: ``on``
    for each row, or ``on``'s own n values."""
    return np.full(n, on, dtype=bool)


class TestTypes:
    def test_shape_product_must_match(self):
        with pytest.raises(ShapeMismatchError):
            NoisePrediction(values=np.zeros(3), shape=(2, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            NP([1.0, np.nan])
        with pytest.raises(ValidationError):
            NP([np.inf, 0.0])

    def test_reshape_roundtrip(self):
        arr = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(NP(arr).reshape(), arr)

    def test_config_invariants(self):
        with pytest.raises(ValidationError):
            cfg(w=0.0)
        with pytest.raises(ValidationError):
            cfg(w_attr=6.0)  # must be strictly below w
        with pytest.raises(ValidationError):
            cfg(w_attr=-0.1)
        with pytest.raises(ValidationError):
            cfg(r_s=0.8, r_e=0.2)
        with pytest.raises(ValidationError):
            cfg(eps_stab=0.0)
        with pytest.raises(ValidationError):
            cfg(eta=-1.0)
        assert cfg(w_attr=0.0).w_attr == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(GuidanceConfig)])
    def test_config_rejects_non_finite(self, field, value):
        # every comparison with nan is False, so eta=nan passes `eta < 0`
        # unrejected; w=inf passes `w > 0`
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            cfg(**{field: value})

    def test_step_position(self):
        with pytest.raises(ValidationError):
            StepPosition(index=0, total=1)
        with pytest.raises(ValidationError):
            StepPosition(index=50, total=50)
        assert StepPosition(index=49, total=50).progress == 1.0


class TestCfgUpdate:
    def test_direct_arithmetic(self):
        out = cfg_update(NP([0.0, 0.0]), NP([1.0, 2.0]), 2.0)
        assert np.array_equal(out.values, [2.0, 4.0])

    def test_identity_case(self):
        u = NP([0.3, -0.7, 2.0])
        for w in (0.5, 1.0, 9.0):
            assert np.all(cfg_update(u, u, w).values == 0.0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal(5)
        u = np.array([0.5, -1.0, 0.25, 3.0, -2.0])
        out = cfg_update(NP(u), NP(u + d), 6.0)
        ref = scalar_scale_diff(list(u), list(u + d), 6.0)
        np.testing.assert_allclose(out.values, ref, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ShapeMismatchError):
            cfg_update(NP([0.0, 0.0]), NP([0.0, 0.0, 0.0]), 2.0)
        with pytest.raises(ValidationError):
            cfg_update(NP([0.0]), NP([1.0]), 0.0)


class TestTargetAndProbe:
    def test_zero_update(self):
        out = target_prediction(NP([1.0, 1.0]), G([0.0, 0.0]))
        assert np.array_equal(out.values, [1.0, 1.0])

    def test_pure_delta(self):
        out = target_prediction(NP([0.0, 0.0]), G([2.0, 4.0]))
        assert np.array_equal(out.values, [2.0, 4.0])

    def test_w1_composition_recovers_conditional(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, t = NP(rng.standard_normal(4)), NP(rng.standard_normal(4))
            out = target_prediction(u, cfg_update(u, t, 1.0))
            np.testing.assert_allclose(out.values, t.values, rtol=0, atol=1e-15)

    def test_probe_disabled(self):
        u, a = NP([0.4, -0.2]), NP([5.0, 5.0])
        out = probe_prediction(u, a, 0.0)
        assert out.values.tobytes() == u.values.tobytes()

    def test_probe_unit_scale_returns_attr(self):
        u, a = NP([0.0, 2.0]), NP([1.0, -1.0])
        np.testing.assert_allclose(probe_prediction(u, a, 1.0).values, a.values,
                                   rtol=0, atol=0)

    def test_probe_arithmetic(self):
        out = probe_prediction(NP([0.0, 0.0]), NP([1.0, -1.0]), 3.0)
        assert np.array_equal(out.values, [3.0, -3.0])

    def test_probe_rejects_negative_scale(self):
        with pytest.raises(ValidationError):
            probe_prediction(NP([0.0]), NP([1.0]), -0.5)


class TestDrift:
    def test_zero_drift(self):
        p = NP([0.1, 0.2])
        assert np.all(attractor_drift(p, p).values == 0.0)

    def test_direct_arithmetic(self):
        u, a, t = NP([0.0, 0.0]), NP([1.0, 0.0]), NP([0.0, 1.0])
        probe = probe_prediction(u, a, 3.0)
        target = target_prediction(u, cfg_update(u, t, 6.0))
        drift = attractor_drift(probe, target)
        assert np.array_equal(drift.values, [3.0, -6.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_two_forms_agree(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 50))
        u, t, a = (NP(rng.standard_normal(dim)) for _ in range(3))
        w, w_attr = 6.0, 3.0
        via_branches = attractor_drift(
            probe_prediction(u, a, w_attr),
            target_prediction(u, cfg_update(u, t, w)))
        expanded = attractor_drift_expanded(u, t, a, w, w_attr)
        scale = np.linalg.norm(expanded.values)
        np.testing.assert_allclose(via_branches.values, expanded.values,
                                   rtol=0, atol=1e-12 * max(scale, 1.0))


class TestSchedule:
    def test_outside_interval_is_zero(self):
        assert schedule_alpha(StepPosition(0, 50), cfg()) == 0.0
        assert schedule_alpha(StepPosition(49, 50), cfg(r_e=0.9)) == 0.0

    def test_gamma2_midpoint(self):
        # pi = 0.5 with [r_s, r_e] = [0, 1] gives pit = 0.5 and alpha = 0.25 exactly
        c = cfg(r_s=0.0, r_e=1.0)
        assert schedule_alpha(StepPosition(50, 101), c) == 0.25

    def test_upper_bound_inclusive(self):
        c = cfg(r_s=0.25, r_e=0.75)
        assert schedule_alpha(StepPosition(75, 101), c) == 1.0
        assert schedule_alpha(StepPosition(76, 101), c) == 0.0

    def test_lower_bound_inclusive(self):
        c = cfg(r_s=0.25, r_e=0.75)
        assert schedule_alpha(StepPosition(25, 101), c) == 0.0  # pit = 0 inside

    def test_monotone_inside(self):
        c = cfg(r_s=0.1, r_e=0.9, gamma=2.0)
        vals = [schedule_alpha(StepPosition(i, 200), c) for i in range(200)]
        inside = [v for i, v in enumerate(vals) if 0.1 <= i / 199 <= 0.9]
        assert all(b >= a for a, b in zip(inside, inside[1:]))


class TestRepulsionCoefficient:
    def test_direct_arithmetic(self):
        diag = repulsion_coefficient(G([1.0, 0.0]), G([2.0, 3.0]), 1.0, cfg())
        assert diag.s_t == 2.0
        assert diag.n_t == pytest.approx(1.0, rel=1e-7)
        assert diag.lambda_t == pytest.approx(2.0, rel=1e-7)

    def test_negative_alignment_rectified(self):
        diag = repulsion_coefficient(G([-1.0, 0.0]), G([2.0, 3.0]), 1.0, cfg())
        assert diag.s_t == -2.0
        assert diag.lambda_t == 0.0

    def test_degenerate_drift(self):
        diag = repulsion_coefficient(G([0.0, 0.0]), G([2.0, 3.0]), 1.0, cfg())
        assert diag.s_t == 0.0
        assert diag.n_t == cfg().eps_stab
        assert diag.lambda_t == 0.0
        assert diag.collinearity_residual == 0.0

    def test_alpha_range_checked(self):
        with pytest.raises(ValidationError):
            repulsion_coefficient(G([1.0]), G([1.0]), 1.5, cfg())


class TestCorrectedUpdate:
    def test_lambda_zero_bit_identical(self):
        delta = G([2.0, -0.0, 3.5])
        out = corrected_update(delta, 0.0, G([1.0, 7.0, -2.0]))
        assert out.values.tobytes() == delta.values.tobytes()

    def test_aligned_component_removed(self):
        out = corrected_update(G([2.0, 3.0]), 2.0, G([1.0, 0.0]))
        assert np.array_equal(out.values, [0.0, 3.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_alignment_bound(self, seed):
        # with alpha*eta = 1 and s > 0:  <delta*, a> == s*eps/(||a||^2 + eps)
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 200))
        a = G(rng.standard_normal(dim))
        d = G(rng.standard_normal(dim))
        c = cfg(eta=1.0)
        diag = repulsion_coefficient(a, d, 1.0, c)
        if diag.s_t <= 0:
            a = G(-a.values)
            diag = repulsion_coefficient(a, d, 1.0, c)
        out = corrected_update(d, diag.lambda_t, a)
        got = float(out.values @ a.values)
        want = diag.s_t * c.eps_stab / diag.n_t
        assert abs(got - want) <= 1e-9


class TestCollinearityResidual:
    def test_exact_multiple_is_zero(self):
        # power-of-two construction keeps every operation exact
        rng = np.random.default_rng(3)
        d = rng.standard_normal(17)
        assert collinearity_residual(G(-2.0 * d), G(4.0 * d)) == 0.0

    def test_non_multiple_is_positive(self):
        assert collinearity_residual(G([1.0, 1.0]), G([1.0, 0.0])) > 0.0

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = collinearity_residual(G(rng.standard_normal(6)),
                                      G(rng.standard_normal(6)))
            assert 0.0 <= r <= 1.0

    def test_zero_reference_direction(self):
        assert collinearity_residual(G([1.0, 0.0]), G([0.0, 0.0])) == 1.0

    def test_degenerate_rows_raise_no_warning(self):
        # rows with a zero drift, a zero delta_ref and both: every step of
        # these is exact, and their zero norms are never divided by
        u, d = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        e_neg = np.array([u, u, u])
        e_text = np.array([u + d, u, u])
        e_attr = np.array([u + 2.0 * d, u + d, u])  # w_attr * 2d == w * d
        g = cfg(r_s=0.0, r_e=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = guided_rows(e_neg, e_text, e_attr, 0.5, g)
            drifts = np_drift_expanded(e_neg, e_text, e_attr, g.w, g.w_attr)
            deltas = np_cfg_update(e_neg, e_text, g.w)
            single = [(collinearity_residual(G(a), G(dr)),
                       repulsion_coefficient(G(a), G(dr), 0.5, g).collinearity_residual)
                      for a, dr in zip(drifts, deltas)]
        assert not drifts[0].any() and not deltas[1].any() and not drifts[2].any()
        assert rows.residual.tolist() == [0.0, 1.0, 0.0]
        assert single == [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]


class TestGuidedPrediction:
    def _triple(self, rng, dim=4):
        return (NP(rng.standard_normal(dim)), NP(rng.standard_normal(dim)),
                NP(rng.standard_normal(dim)))

    def _plain(self, u, t, w):
        return target_prediction(u, cfg_update(u, t, w))

    def test_gate_closed_equals_plain_cfg_bitwise(self):
        rng = np.random.default_rng(5)
        u, t, a = self._triple(rng)
        c = cfg()
        out, diag = dcr_guided_prediction(u, t, a, StepPosition(0, 100), c)
        assert diag.alpha_t == 0.0 and diag.lambda_t == 0.0
        assert out.values.tobytes() == self._plain(u, t, c.w).values.tobytes()

    def test_probe_collapsed_onto_target_equals_plain_cfg(self):
        # attractor branch identical to the text branch: the drift is exactly
        # anti-aligned with the update, so rectification disables repulsion
        rng = np.random.default_rng(6)
        u, t, _ = self._triple(rng)
        c = cfg(r_s=0.0, r_e=1.0)
        out, diag = dcr_guided_prediction(u, t, t, StepPosition(50, 100), c)
        assert diag.s_t <= 0.0 and diag.lambda_t == 0.0
        assert out.values.tobytes() == self._plain(u, t, c.w).values.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_chain(self, seed):
        rng = np.random.default_rng(seed)
        u, t, a = self._triple(rng, dim=6)
        c = cfg(r_s=0.1, r_e=0.9, eta=0.7)
        pos = StepPosition(47, 100)
        out, diag = dcr_guided_prediction(u, t, a, pos, c)
        ref, s, n, alpha, lam = scalar_chain(
            list(u.values), list(t.values), list(a.values), c.w, c.w_attr,
            c.eta, c.gamma, c.r_s, c.r_e, c.eps_stab, pos.index, pos.total)
        np.testing.assert_allclose(out.values, ref, rtol=1e-12, atol=1e-12)
        assert diag.s_t == pytest.approx(s, rel=1e-12)
        assert diag.alpha_t == pytest.approx(alpha, rel=1e-12)
        assert diag.lambda_t == pytest.approx(lam, rel=1e-12)

    def test_purity(self):
        rng = np.random.default_rng(7)
        u, t, a = self._triple(rng)
        pos, c = StepPosition(60, 100), cfg()
        out1, d1 = dcr_guided_prediction(u, t, a, pos, c)
        out2, d2 = dcr_guided_prediction(u, t, a, pos, c)
        assert out1.values.tobytes() == out2.values.tobytes()
        assert d1 == d2


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_orthogonal_component_preserved(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 300))
        a = G(rng.standard_normal(dim))
        d = G(rng.standard_normal(dim))
        lam = float(rng.uniform(0.0, 3.0))
        out = corrected_update(d, lam, a)
        ah = a.values / np.linalg.norm(a.values)
        perp_before = d.values - (d.values @ ah) * ah
        perp_after = out.values - (out.values @ ah) * ah
        np.testing.assert_allclose(perp_after, perp_before, rtol=0,
                                   atol=1e-12 * np.linalg.norm(perp_before))

    def test_rescaling_distinctness(self):
        rng = np.random.default_rng(11)
        u = NP(np.zeros(8))
        t = NP(rng.standard_normal(8))
        # exact scalar multiple (power-of-two scales): zero residual
        a_mult = NP(2.0 * t.values)
        drift = attractor_drift_expanded(u, t, a_mult, w=4.0, w_attr=1.0)
        delta = cfg_update(u, t, 4.0)
        assert collinearity_residual(drift, delta) == 0.0
        # genuinely distinct branch: positive residual
        a_other = NP(t.values + rng.standard_normal(8))
        drift2 = attractor_drift_expanded(u, t, a_other, w=4.0, w_attr=1.0)
        assert collinearity_residual(drift2, delta) > 0.0


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def guided_rows_case(draw):
    """(N, D) branch outputs with exact ties mixed in (a zero CFG update, a
    probe equal to the target, a repeated row) or an attractor branch far
    along the CFG direction (so repulsion fires), a guidance config and
    alpha_t."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    values = hnp.arrays(np.float64, (n, d),
                        elements=st.floats(-100.0, 100.0, allow_subnormal=False))
    e_neg, e_text, e_attr = draw(values), draw(values), draw(values)
    tie = draw(st.sampled_from(["none", "text=neg", "attr=text", "attr=neg",
                                "attr=aligned"]))
    if tie == "text=neg":
        e_text = e_neg.copy()
    elif tie == "attr=text":
        e_attr = e_text.copy()
    elif tie == "attr=neg":
        e_attr = e_neg.copy()
    elif tie == "attr=aligned":
        e_attr = e_neg + draw(st.floats(2.0, 50.0)) * (e_text - e_neg) + 0.01 * e_attr
    w = draw(st.floats(0.1, 8.0))
    g = cfg(w=w, w_attr=draw(st.floats(0.0, w, exclude_max=True)),
            eta=draw(st.sampled_from([0.0, 1.0, 64.0]) | st.floats(0.0, 100.0)),
            gamma=draw(st.floats(0.5, 4.0)))
    return e_neg, e_text, e_attr, g, draw(st.floats(0.0, 1.0))


def _oracle_step(u, t, a, g, alpha, repel=True):
    return np_guided_step(u, t, a, alpha, g.w, g.w_attr, g.eta, g.eps_stab, repel)


def _assert_scalar_functions_equal_oracle(u, t, a, g, pos):
    """Each public function on one latent, bitwise against its numpy 1-D
    reference in tests/oracles.py, at alpha_t = schedule_alpha(pos, g)."""
    U, T, A, alpha = NP(u), NP(t), NP(a), schedule_alpha(pos, g)
    delta_ref, drift = np_cfg_update(u, t, g.w), np_drift_expanded(u, t, a, g.w, g.w_attr)
    assert cfg_update(U, T, g.w).values.tobytes() == delta_ref.tobytes()
    got_drift = attractor_drift_expanded(U, T, A, g.w, g.w_attr)
    assert got_drift.values.tobytes() == drift.tobytes()
    star, s_t, n_t, lam, res = _oracle_step(u, t, a, g, alpha)
    want = [_bits(v) for v in (s_t, n_t, lam, res)]
    diag = repulsion_coefficient(G(drift), G(delta_ref), alpha, g)
    assert [_bits(v) for v in (diag.s_t, diag.n_t, diag.lambda_t,
                               diag.collinearity_residual)] == want
    assert _bits(collinearity_residual(G(drift), G(delta_ref))) == _bits(res)
    assert corrected_update(G(delta_ref), lam, G(drift)).values.tobytes() == \
        np_corrected_update(delta_ref, lam, drift).tobytes()
    got, diag = dcr_guided_prediction(U, T, A, pos, g)
    assert got.values.tobytes() == star.tobytes()
    assert [_bits(v) for v in (diag.s_t, diag.n_t, diag.lambda_t,
                               diag.collinearity_residual)] == want
    return lam


class TestGuidedRows:
    """The row-wise DCR step, ``_guided_rows`` and ``_step_diagnostics``,
    which the sampling loop runs and ``dcr_guided_prediction`` computes
    through, checked row by row against the numpy 1-D reference step in
    tests/oracles.py, and the public scalar functions against their
    references. The step removes from
    the CFG update its positive projection on the attractor drift; APG
    (Sadat et al. 2024, arXiv:2410.02416) analyses guidance corrections of
    this projection form."""

    @settings(max_examples=300, deadline=None)
    @given(guided_rows_case(), st.booleans())
    def test_rows_equal_scalar_pipeline(self, case, repel):
        e_neg, e_text, e_attr, g, alpha = case
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g,
                           repel=flag(len(e_neg), repel))
        for r in range(e_neg.shape[0]):
            star, s_t, n_t, lam, res = _oracle_step(e_neg[r], e_text[r], e_attr[r],
                                                    g, alpha, repel)
            assert rows.eps_star[r].tobytes() == star.tobytes()
            assert _bits(rows.s_t[r]) == _bits(s_t)
            assert _bits(rows.n_t[r]) == _bits(n_t)
            assert _bits(rows.lambda_t[r]) == _bits(lam)
            assert _bits(rows.residual[r]) == _bits(res)

    @settings(max_examples=300, deadline=None)
    @given(guided_rows_case(), st.integers(2, 60), st.data())
    def test_scalar_functions_equal_oracle(self, case, total, data):
        e_neg, e_text, e_attr, g, _ = case
        pos = StepPosition(data.draw(st.integers(0, total - 1)), total)
        for r in range(e_neg.shape[0]):
            _assert_scalar_functions_equal_oracle(e_neg[r], e_text[r], e_attr[r],
                                                  g, pos)

    @pytest.mark.parametrize("dim", [64, 1024, 4096])
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_functions_equal_oracle_at_latent_sizes(self, dim, seed):
        # at the sizes of real latents the stacked-matmul dot products must
        # still round as the 1-D ones; even seeds put the attractor branch
        # along the CFG direction, so repulsion fires
        rng = np.random.default_rng(seed)
        u, t, a = (rng.standard_normal(dim) for _ in range(3))
        if seed % 2 == 0:
            a = u + 4.0 * (t - u) + 0.1 * a
        pos = StepPosition(int(rng.integers(20, 100)), 100)
        g = cfg(eta=0.7, r_s=0.0, r_e=1.0)
        lam = _assert_scalar_functions_equal_oracle(u, t, a, g, pos)
        assert (lam > 0.0) == (seed % 2 == 0)

    @settings(max_examples=150, deadline=None)
    @given(guided_rows_case(), st.integers(2, 60), st.data())
    def test_rows_equal_dcr_guided_prediction(self, case, total, data):
        e_neg, e_text, e_attr, g, _ = case
        pos = StepPosition(data.draw(st.integers(0, total - 1)), total)
        alpha = schedule_alpha(pos, g)
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g)
        for r in range(e_neg.shape[0]):
            star, diag = dcr_guided_prediction(NP(e_neg[r]), NP(e_text[r]),
                                               NP(e_attr[r]), pos, g)
            assert rows.eps_star[r].tobytes() == star.values.tobytes()
            got = (rows.s_t[r], rows.n_t[r], alpha, rows.lambda_t[r], rows.residual[r])
            want = (diag.s_t, diag.n_t, diag.alpha_t, diag.lambda_t,
                    diag.collinearity_residual)
            assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @settings(max_examples=150, deadline=None)
    @given(guided_rows_case())
    def test_no_probe_rows_equal_plain_cfg(self, case):
        e_neg, e_text, e_attr, g, alpha = case
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g,
                           probe=flag(len(e_neg), False))
        for r in range(e_neg.shape[0]):
            plain = e_neg[r] + np_cfg_update(e_neg[r], e_text[r], g.w)
            assert rows.eps_star[r].tobytes() == plain.tobytes()
        assert np.all(rows.s_t == 0.0) and np.all(rows.lambda_t == 0.0)
        assert np.all(rows.n_t == g.eps_stab) and np.all(rows.residual == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(guided_rows_case(), st.sampled_from(["alpha", "eta", "repel"]))
    def test_lambda_zero_is_bitwise_passthrough(self, case, gate):
        e_neg, e_text, e_attr, g, alpha = case
        if gate == "alpha":
            alpha = 0.0
        elif gate == "eta":
            g = dataclasses.replace(g, eta=0.0)
        n = len(e_neg)
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g,
                           repel=flag(n, gate != "repel"))
        plain = guided_rows(e_neg, e_text, e_attr, alpha, g, probe=flag(n, False))
        assert np.all(rows.lambda_t == 0.0)
        assert rows.eps_star.tobytes() == plain.eps_star.tobytes()


@st.composite
def repelling_case(draw):
    """A guided_rows_case whose attractor branch lies far along the CFG
    direction, with w_attr, eta and alpha_t large enough that repulsion
    fires on most rows."""
    e_neg, e_text, e_attr, g, _ = draw(guided_rows_case())
    e_attr = e_neg + draw(st.floats(2.0, 50.0)) * (e_text - e_neg) + 0.01 * e_attr
    g = dataclasses.replace(g, w_attr=draw(st.floats(g.w / 2, g.w, exclude_max=True)),
                            eta=draw(st.floats(0.5, 100.0)))
    return e_neg, e_text, e_attr, g, draw(st.floats(0.05, 1.0))


def _norms(a: np.ndarray) -> np.ndarray:
    # each row scaled by its largest entry first, so entries below about
    # 1e-154 do not square to 0; an all-zero row has norm 0
    m = np.abs(a).max(axis=1)
    scaled = a / np.where(m > 0.0, m, 1.0)[:, None]
    return m * np.sqrt((scaled * scaled).sum(axis=1))


class TestGuidedRowsProperties:
    """Invariants of the row-wise step. The correction removes only the
    positive projection of the CFG update on the drift, as in APG (Sadat et
    al. 2024, arXiv:2410.02416), and the schedule confines it to an interval
    of the trajectory, as limited-interval guidance (Kynkaanniemi et al.
    2024, arXiv:2404.07724) does for CFG itself."""

    @settings(max_examples=200, deadline=None)
    @given(guided_rows_case() | repelling_case(), st.data())
    def test_per_row_arrays_equal_single_row_calls(self, case, data):
        # rows of different variants share one call: each row is bitwise its
        # own call with scalar alpha_t, repel and probe
        e_neg, e_text, e_attr, g, _ = case
        n = e_neg.shape[0]
        alpha = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
        repel = data.draw(hnp.arrays(np.bool_, n))
        probe = data.draw(hnp.arrays(np.bool_, n))
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g, repel=repel, probe=probe)
        for r in range(n):
            one = guided_rows(e_neg[r:r + 1], e_text[r:r + 1], e_attr[r:r + 1],
                              float(alpha[r]), g, repel=flag(1, bool(repel[r])),
                              probe=flag(1, bool(probe[r])))
            for name in ("eps_star", "s_t", "n_t", "lambda_t", "residual"):
                assert getattr(rows, name)[r].tobytes() == \
                    getattr(one, name)[0].tobytes(), name

    @settings(max_examples=200, deadline=None)
    @given(guided_rows_case() | repelling_case(), st.booleans())
    def test_correction_is_at_most_alpha_eta_times_the_cfg_update(self, case, repel):
        # |delta* - delta_ref| = lambda |drift| <= alpha eta |delta_ref| by
        # Cauchy-Schwarz; the slack covers rounding of the sums around it
        e_neg, e_text, e_attr, g, alpha = case
        n = len(e_neg)
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g, repel=flag(n, repel))
        plain = guided_rows(e_neg, e_text, e_attr, alpha, g, probe=flag(n, False))
        delta_ref = g.w * (e_text - e_neg)
        bound = alpha * g.eta * _norms(delta_ref)
        slack = 1e-12 * (_norms(e_neg) + _norms(delta_ref) + bound)
        assert np.all(_norms(rows.eps_star - plain.eps_star) <= bound + slack)

    @settings(max_examples=200, deadline=None)
    @given(guided_rows_case() | repelling_case())
    @example((np.array([[1.87308518e-189]]), np.array([[0.0]]), np.array([[-1.0]]),
              GuidanceConfig(w=2.0, w_attr=1.0, eta=1.0, gamma=1.0, r_s=0.2, r_e=0.8),
              1.4e-45))
    def test_repulsion_lowers_the_alignment_with_the_drift(self, case):
        # <delta*, drift> = s_t - lambda_t |drift|^2 < s_t whenever lambda_t > 0;
        # checked where that decrease exceeds the rounding of the dot product
        e_neg, e_text, e_attr, g, alpha = case
        rows = guided_rows(e_neg, e_text, e_attr, alpha, g)
        drift = g.w_attr * (e_attr - e_neg) - g.w * (e_text - e_neg)
        after = ((rows.eps_star - e_neg) * drift).sum(axis=1)
        decrease = rows.lambda_t * (drift * drift).sum(axis=1)
        noise = 1e-12 * (_norms(rows.eps_star) + _norms(e_neg)) * _norms(drift)
        fired = rows.lambda_t > 0.0
        assert np.all(rows.s_t[fired] > 0.0)
        assert np.all(after[fired] <= rows.s_t[fired] + noise[fired])
        resolved = fired & (decrease > noise)
        assert np.all(after[resolved] < rows.s_t[resolved])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 200), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.25, 4.0))
    def test_schedule_is_monotone_on_the_interval_and_zero_outside(
            self, total, a, b, gamma):
        assume(a != b)
        g = cfg(r_s=min(a, b), r_e=max(a, b), gamma=gamma)
        steps = [StepPosition(i, total) for i in range(total)]
        alphas = [schedule_alpha(pos, g) for pos in steps]
        inside = [al for pos, al in zip(steps, alphas)
                  if g.r_s <= pos.progress <= g.r_e]
        assert all(0.0 <= al <= 1.0 for al in inside)
        assert all(x <= y for x, y in zip(inside, inside[1:]))
        assert all(al == 0.0 for pos, al in zip(steps, alphas)
                   if not g.r_s <= pos.progress <= g.r_e)
