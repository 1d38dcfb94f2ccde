"""The claim scorecard that ``repro validate`` prints."""

from repro.analysis.figures import ClaimResult, format_scorecard


class TestClaimResult:
    def test_str_pass_fail(self):
        ok = ClaimResult("thing holds", "Figure 2", True, "1.5x", "2x")
        bad = ClaimResult("thing holds", "Figure 2", False, "0.5x")
        assert str(ok).startswith("[PASS]")
        assert str(bad).startswith("[FAIL]")
        assert "Figure 2" in str(ok)
        assert "paper: 2x" in str(ok) and "paper" not in str(bad)

    def test_format_scorecard_counts(self):
        results = [ClaimResult("a", "s", True, "m"),
                   ClaimResult("b", "s", False, "m")]
        text = format_scorecard(results)
        assert "1/2 claims reproduced" in text
