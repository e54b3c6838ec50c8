"""Tests for the reproduction-fidelity scoring module."""

import pytest

from repro.experiments.fidelity import FidelityCheck, FidelityReport, scaling_fidelity


class TestFidelityReport:
    def test_ratio_check_within_band_passes(self):
        report = FidelityReport()
        check = report.add_ratio_check("x", reported=10.0, measured=12.0,
                                       rel_tolerance=0.5)
        assert check.passed

    def test_ratio_check_outside_band_fails(self):
        report = FidelityReport()
        check = report.add_ratio_check("x", reported=10.0, measured=30.0,
                                       rel_tolerance=0.5)
        assert not check.passed
        assert report.num_passed == 0

    def test_missing_paper_value_is_recorded_not_failed(self):
        report = FidelityReport()
        check = report.add_ratio_check("x", reported=None, measured=5.0)
        assert check.passed
        assert "recorded" in check.detail

    def test_ordering_check(self):
        report = FidelityReport()
        assert report.add_ordering_check("a<=b", 1.0, 2.0).passed
        assert not report.add_ordering_check("bad", 3.0, 2.0).passed
        assert report.num_passed == 1

    def test_render_contains_status_column(self):
        report = FidelityReport()
        report.add_ratio_check("good", 10.0, 11.0)
        report.add_ratio_check("bad", 10.0, 100.0)
        rendering = report.render()
        assert "MISMATCH" in rendering and "ok" in rendering
        assert "1/2" in rendering


class TestScalingFidelity:
    @pytest.fixture(scope="class")
    def report(self):
        # 16 nodes keep this quick; the bands scale with `top`.
        return scaling_fidelity(16)

    def test_all_ordering_claims_hold(self, report):
        ordering_checks = [c for c in report.checks if c.reported is None]
        assert ordering_checks
        assert all(check.passed for check in ordering_checks)

    def test_majority_of_ratio_checks_within_band(self, report):
        ratio_checks = [c for c in report.checks if c.reported is not None]
        passed = sum(1 for check in ratio_checks if check.passed)
        # At 16 nodes (instead of the paper's 32) the reported values are
        # compared against a smaller cluster, so only a qualified majority is
        # required; the full report's fidelity section runs the 32-node one.
        assert passed >= len(ratio_checks) // 2

    def test_report_renders(self, report):
        assert "Reproduction fidelity" in report.render()
