"""Tests for the float-doctrine rule RPR402 (libm-divergent ufuncs).

The rule is opt-in per module via the ``# repro: float-doctrine``
pragma, so every positive case here carries the pragma and the gating
tests prove that prose mentions and trailing comments do *not* opt a
module in.  It is a name check: ``np.<divergent ufunc>`` calls and
every ``**`` fire, whatever the operands.
"""

import textwrap

from repro.lint.rules_numpy import DEFAULT_DIVERGENT_UFUNCS

PRAGMA = "# repro: float-doctrine\n"


def doctrine(snippet: str) -> str:
    """Prefix a dedented snippet with the doctrine pragma."""
    return PRAGMA + textwrap.dedent(snippet)


class TestDoctrineGating:
    SNIPPET = """
        import numpy as np

        def square(values: FloatArray) -> FloatArray:
            return np.power(values, 2.0)
    """

    def test_pragma_opts_in(self, codes_in):
        assert codes_in(doctrine(self.SNIPPET)) == ["RPR402"]

    def test_without_pragma_rules_stay_silent(self, codes_in):
        assert codes_in(self.SNIPPET) == []

    def test_prose_mention_does_not_opt_in(self, codes_in):
        snippet = (
            '"""Module prose referring to the # repro: float-doctrine '
            'pragma."""\n' + textwrap.dedent(self.SNIPPET)
        )
        assert codes_in(snippet) == []

    def test_trailing_comment_does_not_opt_in(self, codes_in):
        snippet = (
            "X = 1  # repro: float-doctrine\n"
            + textwrap.dedent(self.SNIPPET)
        )
        assert codes_in(snippet) == []

    def test_relaxed_under_tests(self, codes_in):
        assert (
            codes_in(
                doctrine(self.SNIPPET), filename="tests/lint/fake.py"
            )
            == []
        )


class TestSimdDivergentUfunc:
    def test_np_power_flagged(self, codes_in):
        assert (
            codes_in(
                doctrine(
                    """
                    import numpy as np

                    def square(values: FloatArray) -> FloatArray:
                        return np.power(values, 2.0)
                    """
                )
            )
            == ["RPR402"]
        )

    def test_star_star_on_float_array_flagged(self, codes_in):
        assert (
            codes_in(
                doctrine(
                    """
                    def square(values: FloatArray) -> FloatArray:
                        return values ** 2.0
                    """
                )
            )
            == ["RPR402"]
        )

    def test_scalar_pow_flagged_too(self, codes_in):
        # A name check cannot tell a float from an array; the doctrine
        # modules spell scalar powers with math.pow instead.
        assert (
            codes_in(
                doctrine(
                    """
                    def cube(x: float) -> float:
                        return x ** 3.0
                    """
                )
            )
            == ["RPR402"]
        )

    def test_sqrt_is_correctly_rounded(self, codes_in):
        assert "sqrt" not in DEFAULT_DIVERGENT_UFUNCS
        assert (
            codes_in(
                doctrine(
                    """
                    import numpy as np

                    def root(values: FloatArray) -> FloatArray:
                        return np.sqrt(values)
                    """
                )
            )
            == []
        )

class TestSuppression:
    def test_doctrine_finding_is_suppressible(self, codes_in):
        assert (
            codes_in(
                doctrine(
                    """
                    import numpy as np

                    def envelope(values: FloatArray) -> FloatArray:
                        return np.cos(values)  # repro-lint: disable=RPR402 -- verified against libm
                    """
                )
            )
            == []
        )
