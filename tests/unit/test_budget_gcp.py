"""Budget equations (Eqs. 4-6) and the global charge pump runtime."""

import pytest

from repro.config.system import PowerConfig
from repro.errors import TokenError
from repro.power.gcp import GlobalChargePump


def make_pump(efficiency=0.70, cap=49.0):
    return GlobalChargePump(
        lcp_efficiency=0.95, gcp_efficiency=efficiency,
        max_output_tokens=cap,
    )


class TestEquations:
    def test_eq4_baseline(self):
        """PT_LCP = 560 * 0.95 / 8 = 66.5."""
        power = PowerConfig()
        assert power.lcp_tokens(8) == pytest.approx(66.5)

    def test_eq5_conversion(self):
        """PT_GCP = sum(borrowed_i / E_LCP) * E_GCP."""
        gcp, out = make_pump(), 9.5 * 8 / 0.95 * 0.70
        assert gcp.lcp_equivalent_cost(out) == pytest.approx(9.5 * 8)
        assert gcp.input_power(out) == pytest.approx(9.5 * 8 / 0.95)

    def test_eq5_inverse(self):
        borrowed = make_pump().lcp_equivalent_cost(56.0)
        assert borrowed / 0.95 * 0.70 == pytest.approx(56.0)

    def test_eq6_identity_holds_for_any_borrow(self):
        """The DIMM input budget is invariant under borrowing (Eq. 6):
        the chips keep what they did not lend, and the GCP draws
        exactly the input power the borrowed tokens would have."""
        power = PowerConfig()
        lcp, gcp = power.lcp_tokens(8), make_pump()
        for out in (0.0, 10.0, 300.0):
            chips_term = (8 * lcp - gcp.lcp_equivalent_cost(out)) / 0.95
            assert chips_term + gcp.input_power(out) == \
                pytest.approx(power.dimm_tokens)

    def test_equal_efficiency_borrowing_is_free(self):
        """Section 6.1.1: at E_LCP = E_GCP borrowed tokens convert 1:1."""
        assert make_pump(efficiency=0.95).lcp_equivalent_cost(10.0) == \
            pytest.approx(10.0)


class TestGlobalChargePump:
    def test_input_power_conversion(self):
        gcp = make_pump(efficiency=0.5)
        assert gcp.input_power(10.0) == pytest.approx(20.0)

    def test_lcp_equivalent_cost(self):
        """At 50% efficiency a GCP token costs 1.9 LCP tokens of input."""
        gcp = make_pump(efficiency=0.5)
        assert gcp.lcp_equivalent_cost(1.0) == pytest.approx(1.9)

    def test_pump_capacity_enforced(self):
        gcp = make_pump(cap=40.0)
        gcp.acquire(30.0)
        assert not gcp.can_supply(20.0)
        with pytest.raises(TokenError):
            gcp.acquire(20.0)

    def test_acquire_release_cycle(self):
        gcp = make_pump(cap=40.0)
        grant = gcp.acquire(30.0)
        gcp.release(grant)
        assert gcp.output_in_use == 0.0
        assert gcp.can_supply(40.0)

    def test_shrink(self):
        gcp = make_pump(cap=40.0)
        grant = gcp.acquire(30.0)
        gcp.shrink(grant, 10.0)
        assert gcp.output_in_use == pytest.approx(10.0)
        assert gcp.can_supply(30.0)

    def test_shrink_cannot_grow(self):
        gcp = make_pump(cap=40.0)
        grant = gcp.acquire(10.0)
        with pytest.raises(TokenError):
            gcp.shrink(grant, 20.0)

    def test_double_release_rejected(self):
        gcp = make_pump()
        grant = gcp.acquire(5.0)
        gcp.release(grant)
        with pytest.raises(TokenError):
            gcp.release(grant)

    def test_peak_and_totals_tracked(self):
        gcp = make_pump(cap=49.0)
        a = gcp.acquire(20.0)
        gcp.acquire(15.0)
        gcp.release(a)
        assert gcp.peak_output == pytest.approx(35.0)
        assert gcp.total_acquired == pytest.approx(35.0)
        assert gcp.acquire_count == 2

    def test_zero_request_is_free(self):
        gcp = make_pump(cap=0.0)
        assert gcp.can_supply(0.0)
