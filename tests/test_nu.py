import dataclasses
from fractions import Fraction as F

import pytest

from aimnu import nu
from aimnu.algebra import Poly, RatFunc
from aimnu.errors import AmbiguousBranch, InvalidInput, NoRationalReduction, NotHypergeometricType
from aimnu.nu import NuProblem, build_phi, nu_find_k, nu_solve
from aimnu.verify import reduction_identity_holds

R = Poly.variable()


class TestValidation:
    def test_degree_bounds(self):
        with pytest.raises(NotHypergeometricType):
            NuProblem(R * R, Poly.const(1), Poly())
        with pytest.raises(NotHypergeometricType):
            NuProblem(Poly(), Poly.const(1), R**3)
        with pytest.raises(NotHypergeometricType):
            NuProblem(Poly(), Poly(), Poly())

    def test_rejects_a_list_for_a_poly(self):
        # a plain list once failed with a bare AttributeError on .degree
        one = Poly.const(1)
        for args in (([0], one, one), (one, [1], one), (one, one, [1])):
            with pytest.raises(InvalidInput):
                NuProblem(*args)


class TestFindK:
    def test_oscillator_candidates(self):
        # tauTilde = 0, sigma = 1, sigmaTilde = 2E - r^2 at E = 5/2
        problem = NuProblem(Poly(), Poly.const(1), Poly([F(5), 0, -1]))
        candidates = nu_find_k(problem)
        assert {c.k for c in candidates} == {F(5)}
        assert {c.pi for c in candidates} == {R, -R}
        by_pi = {c.pi: c for c in candidates}
        assert by_pi[R].lambda_bar == 6 and by_pi[R].tau == 2 * R
        assert by_pi[-R].lambda_bar == 4 and by_pi[-R].tau == -2 * R

    def test_identically_vanishing_radicand(self):
        # sigmaTilde = ((sigma')/2)^2 forces k = 0 with pi = sigma'/2
        problem = NuProblem(Poly(), R * R, R * R)
        candidates = nu_find_k(problem)
        assert len(candidates) == 1
        assert candidates[0].k == 0
        assert candidates[0].pi == R
        assert candidates[0].lambda_bar == 1

    def test_one_parameter_family_rejected(self):
        # every k gives a perfect square but no discrete choice exists
        problem = NuProblem(Poly(), R * R, 5 * R * R)
        with pytest.raises(NoRationalReduction):
            nu_find_k(problem)

    def test_irrational_square_root_rejected(self):
        # k = 0 is the only discriminant root but sqrt(2) r^2 is irrational
        problem = NuProblem(Poly(), Poly.const(1), -2 * R * R)
        with pytest.raises(NoRationalReduction):
            nu_find_k(problem)

    def test_square_sigma_gives_a_linear_discriminant(self):
        # sigma = r^2 makes the K^2 coefficient A vanish: u = (k - 2) r^2 + 1
        problem = NuProblem(Poly(), R * R, 3 * R * R - 1)
        candidates = nu_find_k(problem)
        assert [(c.k, c.pi) for c in candidates] == [(2, R + 1), (2, R - 1)]
        assert all(c.phi == build_phi(c.pi, R * R) for c in candidates)

    def test_no_real_k(self):
        # u = r^2 + k r - 1 has discriminant k^2 + 4 > 0 for every k
        problem = NuProblem(Poly.const(1), R, 1 - R * R)
        with pytest.raises(NoRationalReduction, match="no rational k"):
            nu_find_k(problem)

    def test_constant_discriminant(self):
        # u = k - r is linear in r for every k: A = B = 0 != C, no root K
        problem = NuProblem(Poly(), Poly.const(1), R)
        with pytest.raises(NoRationalReduction, match="no rational k gives a perfect-square radicand"):
            nu_find_k(problem)

    def test_constant_radicand(self):
        # u = (k - 3) r^2 + 7 - k: the square root is 2 at k = 3 and 2r at k = 7
        problem = NuProblem(2 * R, R * R - 1, 3 * R * R - 7)
        candidates = nu_find_k(problem)
        expected = [(3, Poly.const(2)), (3, Poly.const(-2)), (7, 2 * R), (7, -2 * R)]
        assert [(c.k, c.pi) for c in candidates] == expected

    def test_zero_pi_over_irreducible_sigma(self):
        # u = (k - 2)(r^2 + 1) vanishes at k = 2 with pi = 0: phi is the trivial weight
        sigma = R * R + 1
        (candidate,) = nu_find_k(NuProblem(2 * R, sigma, 2 * sigma))
        assert candidate.k == 2 and candidate.pi.is_zero
        assert candidate.phi == build_phi(Poly(), sigma)
        assert candidate.phi.log_derivative().is_zero

    def test_pi_sharing_a_root_of_sigma(self):
        # pi = 2r cancels the root 0 of sigma = r^2 - r: phi = (r - 1)^2 alone
        candidates = nu_find_k(NuProblem(Poly(), R * R - R, R * R - 3 * R))
        by_pi = {c.pi: c for c in candidates}
        assert by_pi[2 * R].k == 1
        assert by_pi[2 * R].phi.factors == ((1, 2),)
        assert by_pi[-R].phi.factors == ((1, -1),)

    def test_phi_from_the_integers_at_hand(self, monkeypatch):
        # sigma = r - r^2 splits, so all four candidates carry a phi; none goes back
        # through build_phi or integrate_log_derivative to clear pi and sigma again
        problem = NuProblem(-R, Poly([0, 1, -1]), Poly([0, 4, -5]))
        calls = []
        for name in ("build_phi", "integrate_log_derivative"):
            monkeypatch.setattr(nu, name, lambda *args, name=name: calls.append(name))
        candidates = nu_find_k(problem)
        monkeypatch.undo()
        assert calls == [] and len(candidates) == 4
        assert all(c.phi is not None and c.phi == build_phi(c.pi, problem.sigma) for c in candidates)

    def test_round_trip_construction(self):
        sigma = Poly([0, 1, -1])
        pi = Poly([1, -2])
        k0 = F(3)
        tau = Poly([2, -5])
        tau_tilde = tau - 2 * pi
        half = (sigma.derivative() - tau_tilde) * F(1, 2)
        sigma_tilde = half * half + k0 * sigma - (pi - half) * (pi - half)
        candidates = nu_find_k(NuProblem(tau_tilde, sigma, sigma_tilde))
        assert any(c.k == k0 and c.pi == pi for c in candidates)


class TestReductionIdentity:
    PROBLEMS = (
        NuProblem(Poly(), Poly.const(1), Poly([F(5), 0, -1])),  # oscillator at E = 5/2
        NuProblem(-R, Poly([0, 1, -1]), Poly([0, 4, -5])),  # four candidates
        # denominators: sigma = (2r - 1)(r + 3)/3, k = 2/7 and -6968/3675
        NuProblem(
            Poly([F(-1, 6), F(-2, 5)]),
            Poly([-1, F(5, 3), F(2, 3)]),
            Poly([F(3, 14), F(593, 1260), F(-389, 420)]),
        ),
    )

    def test_every_candidate_satisfies_it(self):
        for problem in self.PROBLEMS:
            for c in nu_find_k(problem):
                assert reduction_identity_holds(problem, c)

    def test_wrong_lambda_bar_or_tau_fails(self):
        for problem in self.PROBLEMS:
            for c in nu_find_k(problem):
                for wrong in (
                    dataclasses.replace(c, lambda_bar=c.lambda_bar + 1),
                    dataclasses.replace(c, tau=c.tau + R),
                ):
                    assert not reduction_identity_holds(problem, wrong)


class TestBuildPhi:
    def test_gaussian_factor(self):
        phi = build_phi(-R, Poly.const(1))
        assert phi.log_derivative() == RatFunc(-R)
        # exp(-r^2/2)
        assert phi.exp_arg == RatFunc(R * R * F(-1, 2))

    def test_power_factor(self):
        phi = build_phi(Poly.const(2), R)  # phi = r^2
        assert phi.log_derivative() == RatFunc(Poly.const(2), R)

    def test_identity_general(self):
        pi, sigma = Poly([1, -2]), Poly([0, 1, -1])
        phi = build_phi(pi, sigma)
        assert phi.log_derivative() == RatFunc(pi, sigma)


class TestSolve:
    def test_oscillator_spectrum(self):
        # the bound-state condition lambdaBar = lambdaBar_n singles out E = n + 1/2
        for n in range(4):
            def gap(E, n=n):
                problem = NuProblem(Poly(), Poly.const(1), Poly([2 * E, 0, -1]))
                lam_n, reduction = nu_solve(problem, n)
                assert reduction.tau_slope < 0
                return reduction.lambda_bar - lam_n

            g0, g1 = gap(F(0)), gap(F(1))
            assert -g0 / (g1 - g0) == F(n) + F(1, 2)

    def test_inconsistent_mode(self):
        # sigmaTilde = -r^2: reduction exists but lambdaBar_n never matches at n = 0
        problem = NuProblem(Poly(), Poly.const(1), -R * R)
        lam0, reduction = nu_solve(problem, 0)
        assert reduction.k == 0 and reduction.pi == -R
        assert reduction.lambda_bar == -1
        assert lam0 == 0
        assert reduction.lambda_bar != lam0

    def test_ambiguous_branch(self):
        problem = NuProblem(Poly(), R * R, R * R)  # single branch with tau' = 2 > 0
        with pytest.raises(AmbiguousBranch):
            nu_solve(problem, 1)
