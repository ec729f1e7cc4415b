import dataclasses
from fractions import Fraction as F

import pytest

from aimnu import nu, verify
from aimnu.algebra import Poly, RatFunc, WeightExpr
from aimnu.errors import AmbiguousBranch, InvalidInput, NoRationalReduction, NotHypergeometricType
from aimnu.hypergeometric import gamma_n
from aimnu.nu import NuProblem, build_phi, nu_find_k, nu_solve
from aimnu.verify import _reduction_sides

R = Poly.variable()


class TestValidation:
    def test_degree_bounds(self):
        with pytest.raises(NotHypergeometricType):
            NuProblem(R * R, Poly.const(1), Poly())
        with pytest.raises(NotHypergeometricType):
            NuProblem(Poly(), Poly.const(1), R**3)
        with pytest.raises(NotHypergeometricType):
            NuProblem(Poly(), Poly(), Poly())
        with pytest.raises(NotHypergeometricType):
            NuProblem(Poly(), R**3, Poly())

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
        assert candidate.phi == WeightExpr(RatFunc(1), (), RatFunc(0))

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
                original, reduced = _reduction_sides(problem, c)
                assert original() == reduced()

    def test_wrong_lambda_bar_or_tau_fails(self):
        for problem in self.PROBLEMS:
            for c in nu_find_k(problem):
                for wrong in (
                    dataclasses.replace(c, lambda_bar=c.lambda_bar + 1),
                    dataclasses.replace(c, tau=c.tau + R),
                ):
                    original, reduced = _reduction_sides(problem, wrong)
                    assert original() != reduced()


class TestBuildPhi:
    def test_gaussian_factor(self):
        phi = build_phi(-R, Poly.const(1))  # exp(-r^2/2)
        assert phi == WeightExpr(RatFunc(1), (), RatFunc(R * R * F(-1, 2)))

    def test_power_factor(self):
        phi = build_phi(Poly.const(2), R)  # phi = r^2
        assert phi == WeightExpr(RatFunc(1), ((F(0), F(2)),), RatFunc(0))

    def test_identity_general(self, log_derivative_gap):
        pi, sigma = Poly([1, -2]), Poly([0, 1, -1])
        phi = build_phi(pi, sigma)
        assert log_derivative_gap(phi, pi, sigma) == 0


class TestSolve:
    def test_oscillator_spectrum(self):
        # the bound-state condition lambdaBar = lambdaBar_n singles out E = n + 1/2
        for n in range(4):
            def gap(E, n=n):
                problem = NuProblem(Poly(), Poly.const(1), Poly([2 * E, 0, -1]))
                lam_n, reduction = nu_solve(problem, n)
                assert reduction.tau.coeff(1) < 0
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

    @pytest.mark.parametrize(
        "tau_tilde, sigma_tilde, other_tau, chosen_tau, lam_1",
        [
            # beside tau' = 0 and beside tau' = 1/2: only tau' < 0 is the bound-state branch
            (Poly([1]), Poly(), Poly([1]), Poly([-1, -4]), F(4)),
            (Poly([1, 1]), Poly([0, F(1, 4), F(11, 16)]), Poly([1, F(1, 2)]), Poly([-1, F(-9, 2)]), F(9, 2)),
        ],
        ids=["beside-zero-slope", "beside-slope-one-half"],
    )
    def test_picks_the_negative_slope(self, tau_tilde, sigma_tilde, other_tau, chosen_tau, lam_1):
        problem = NuProblem(tau_tilde, -R * R, sigma_tilde)
        assert [c.tau for c in nu_find_k(problem)] == [other_tau, chosen_tau]
        lam, reduction = nu_solve(problem, 1)
        assert reduction.tau == chosen_tau
        assert lam == lam_1

    def test_ambiguous_branch(self):
        problem = NuProblem(Poly(), R * R, R * R)  # single branch with tau' = 2 > 0
        with pytest.raises(AmbiguousBranch) as raised:
            nu_solve(problem, 1)
        assert str(raised.value) == (
            "0 candidates with tau' < 0; choose one from nu_find_k (candidates: [NuReduction("
            "k=Fraction(0, 1), pi=Poly([Fraction(0, 1), Fraction(1, 1)]), lambda_bar=Fraction(1, 1), "
            "tau=Poly([Fraction(0, 1), Fraction(2, 1)]), phi=WeightExpr(prefactor=RatFunc("
            "Poly([Fraction(1, 1)]), Poly([Fraction(1, 1)])), factors=((Fraction(0, 1), Fraction(1, 1)),), "
            "exp_arg=RatFunc(Poly([]), Poly([Fraction(1, 1)]))))])"
        )

    def test_two_negative_branches_are_ambiguous(self):
        # sigma = 1 + r - r^2 has no rational root, so neither branch carries a phi
        problem = NuProblem(Poly([-2, -2]), Poly([1, 1, -1]), Poly.const(2))
        with pytest.raises(AmbiguousBranch) as raised:
            nu_solve(problem, 1)
        assert str(raised.value) == (
            "2 candidates with tau' < 0; choose one from nu_find_k (candidates: [NuReduction("
            "k=Fraction(0, 1), pi=Poly([Fraction(2, 1)]), lambda_bar=Fraction(0, 1), "
            "tau=Poly([Fraction(2, 1), Fraction(-2, 1)]), phi=None), NuReduction("
            "k=Fraction(0, 1), pi=Poly([Fraction(1, 1)]), lambda_bar=Fraction(0, 1), "
            "tau=Poly([Fraction(0, 1), Fraction(-2, 1)]), phi=None)])"
        )

    def test_matches_the_unique_negative_candidate(self, monkeypatch):
        # on the random constructions of verify's nu suite and on the oscillator at a few E,
        # nu_solve builds the one record of nu_find_k with tau' < 0, or refuses with every
        # candidate when there are 0 or several
        problems, find_k = [], nu.nu_find_k
        monkeypatch.setattr(nu, "nu_find_k", lambda problem: problems.append(problem) or find_k(problem))
        verify.suite_nu()
        monkeypatch.undo()
        assert len(problems) >= 50  # the suite's constructions; its nu_solve calls go round nu_find_k
        problems += [NuProblem(Poly(), Poly.const(1), Poly([2 * E, 0, -1])) for E in (F(0), F(1, 2), F(7, 3))]
        counts = []
        for problem in problems:
            candidates = nu_find_k(problem)
            negative = [c for c in candidates if c.tau.coeff(1) < 0]
            counts.append(len(negative))
            if len(negative) == 1:
                assert nu_solve(problem, 2) == (gamma_n(negative[0].tau, problem.sigma, 2), negative[0])
                continue
            with pytest.raises(AmbiguousBranch) as raised:
                nu_solve(problem, 2)
            assert str(raised.value) == (
                f"{len(negative)} candidates with tau' < 0; choose one from nu_find_k (candidates: {candidates})"
            )
        assert {0, 1, 2} <= set(counts)
