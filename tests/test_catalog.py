from fractions import Fraction as F

import pytest

from aimnu.catalog import CATALOG, catalog_get, catalog_list, expected_eigenvalue
from aimnu.errors import BadParameter, DegenerateParameterMap, UnknownEntry
from aimnu.hypergeometric import eigenvalue

ALL_NAMES = [
    "cauchy_euler",
    "hermite",
    "hermite_b",
    "laguerre",
    "confluent",
    "hypergeometric",
    "legendre",
    "jacobi",
    "chebyshev_a",
    "chebyshev_b",
    "gegenbauer",
    "hyperspherical",
    "bessel",
    "generalized_bessel",
    "morse",
    "hulthen",
    "kratzer",
]


class TestListing:
    def test_all_entries_present_in_stable_order(self):
        assert [e.name for e in catalog_list()] == ALL_NAMES
        assert list(CATALOG) == ALL_NAMES

    def test_substring_filter(self):
        assert [e.name for e in catalog_list("chebyshev")] == [
            "chebyshev_a",
            "chebyshev_b",
        ]
        assert [e.name for e in catalog_list("bessel")] == ["bessel", "generalized_bessel"]
        assert catalog_list("nope") == []

    def test_provenance_notes_nonempty(self):
        assert all(e.provenance for e in catalog_list())


class TestGet:
    def test_defaults_applied(self):
        problem = catalog_get("gegenbauer")  # k defaults to 3/2
        assert eigenvalue(problem, 1) == 1 + 2 * F(3, 2)

    def test_override_parameter(self):
        problem = catalog_get("gegenbauer", {"k": F(2)})
        assert eigenvalue(problem, 3) == 3 * (3 + 4)

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry):
            catalog_get("not_a_thing")

    def test_unknown_parameter(self):
        with pytest.raises(BadParameter):
            catalog_get("morse", {"gamma": F(1)})

    def test_float_parameter_rejected(self):
        # Fraction(0.1) would silently become 3602879701896397/36028797018963968
        with pytest.raises(BadParameter, match=r"^morse: parameter alpha is 0.1, not an int or a Fraction$"):
            catalog_get("morse", {"alpha": 0.1})
        with pytest.raises(BadParameter):
            expected_eigenvalue("morse", {"beta": 2.5}, 0)
        with pytest.raises(BadParameter):
            catalog_get("morse", {"alpha": "1/2"})

    def test_constraint_violation(self):
        with pytest.raises(BadParameter):
            catalog_get("morse", {"alpha": F(0)})
        with pytest.raises(BadParameter):
            catalog_get("kratzer", {"Lambda": F(-1)})

    def test_constraint_is_one_excluded_value(self):
        constraints = {
            (e.name, spec.name): spec.constraint_text
            for e in CATALOG.values()
            for spec in e.parameters
            if spec.excluded is not None
        }
        assert constraints == {
            ("morse", "alpha"): "alpha != 0",
            ("morse", "beta"): "beta != 0",
            ("hulthen", "q"): "q != 0",
            ("kratzer", "Lambda"): "Lambda != -1",
        }
        with pytest.raises(BadParameter, match=r"^kratzer: parameter Lambda violates Lambda != -1$"):
            catalog_get("kratzer", {"Lambda": F(-1)})
        assert catalog_get("kratzer", {"Lambda": F(-1, 2)}).parameter == "epsilon"


class TestSpectra:
    def test_every_entry_matches_its_formula(self):
        for name in ALL_NAMES:
            problem = catalog_get(name)
            for n in range(8):
                assert eigenvalue(problem, n) == expected_eigenvalue(name, None, n), name

    def test_selected_exact_values(self):
        assert expected_eigenvalue("hermite", None, 7) == 7
        assert expected_eigenvalue("jacobi", None, 3) == 21  # n(n+alpha+beta+1), 1+2
        assert expected_eigenvalue("chebyshev_a", None, 4) == 16
        assert expected_eigenvalue("chebyshev_b", None, 4) == 24
        assert expected_eigenvalue("legendre", None, 5) == 30
        assert expected_eigenvalue("bessel", None, 3) == 12
        assert expected_eigenvalue("kratzer", None, 1) == F(1, 4)
        assert expected_eigenvalue("morse", None, 0) == F(2)
        assert expected_eigenvalue("hulthen", None, 0) == F(3, 2)

    def test_parameterized_formulas(self):
        params = {"alpha": F(1, 3), "beta": F(7, 2)}
        assert expected_eigenvalue("morse", params, 2) == F(7, 2) - F(5, 2) * F(1, 3)
        params = {"q": F(1, 2), "beta2": F(9)}
        assert expected_eigenvalue("hulthen", params, 1) == (9 - F(1, 2) * 4) / (2 * F(1, 2) * 2)

    def test_negative_n_rejected(self):
        with pytest.raises(BadParameter):
            expected_eigenvalue("hermite", None, -1)

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry):
            expected_eigenvalue("missing", None, 0)

    @pytest.mark.parametrize("Lambda, n", [(-2, 1), (-3, 2), (-7, 6)])
    def test_pole_of_the_formula_is_a_degenerate_map(self, Lambda, n):
        # A/(2(n + Lambda + 1)) has no value at n = -Lambda - 1; once a bare ZeroDivisionError
        params = {"Lambda": F(Lambda)}
        message = f"^kratzer: the spectrum formula has a pole at n = {n}$"
        with pytest.raises(DegenerateParameterMap, match=message):
            expected_eigenvalue("kratzer", params, n)
        with pytest.raises(DegenerateParameterMap):
            eigenvalue(catalog_get("kratzer", params), n)

    def test_rational_parameters_give_rational_spectra(self):
        problem = catalog_get("hulthen", {"q": F(2, 3), "beta2": F(11, 7)})
        for n in range(5):
            assert isinstance(eigenvalue(problem, n), F)
