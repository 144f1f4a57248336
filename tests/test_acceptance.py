"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one summary line (plus one line per sub-check), so a
plain ``pytest tests/test_acceptance.py`` run shows the same report as
``blockade verify``.  One sub-check is a documented impossibility and is
asserted *red* here, with a strict xfail twin below that keeps it visible in
the pytest summary; see that test's reason string for the analysis.
"""

import pytest

from blockade import basis, verify
from blockade.dynamics import spectral_checks, taylor_oracle
from blockade.series import density
from blockade.words import ring


@pytest.mark.parametrize("number", sorted(verify.CRITERIA))
def test_criterion(number, capsys):
    checks = verify.criterion_checks(number)
    off = [r.name for r in checks if not r.as_expected]
    with capsys.disabled():
        print()
        for r in checks:
            print(f"  {r}")
        print(f"CRITERION {number}: {'FAIL' if off else 'PASS'}")
    # a documented impossibility is expected red: if it passes, the package
    # changed, and the analysis in its details needs a second look
    assert not off, f"criterion {number} not in the expected state: {off}"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated as: the 17-order size-free series matches the exact 18-site ring "
        "evolution to 1e-3 through t = 2.  The exact rational coefficients "
        "(confirmed independently by the symbolic engine and a 20-site oracle) "
        "and the exact evolution (confirmed by a Krylov propagator) put the "
        "first 1e-3 crossing at t ~ 1.49, with the difference reaching ~38 at "
        "t = 2, so this check cannot pass as stated."
    ),
)
def test_high_order_series_tracks_evolution_through_t2():
    checks = [r for r in verify.criterion_checks(5) if r.expected_failure]
    assert checks and all(r.passed for r in checks)


def c6_rows() -> dict:
    return {r.name: r for r in verify.criterion_checks(6)}


def test_c6_lists_an_asymmetric_drive(monkeypatch):
    # raising k also needs k + 2 unexcited: the drive builder refuses it on
    # every lattice, and C6 lists each refusal instead of stopping
    def raise_needs_k_plus_2_ground(states, masks):
        for k, m in enumerate(masks):
            yield 1 << k, (states >> k & 1 == 1) | (states & (m | 1 << k + 2) == 0)

    monkeypatch.setattr(basis, "_flips", raise_needs_k_plus_2_ground)
    row = c6_rows()["density even in time: the drive is symmetric, exact integers"]
    assert not row.passed and "ring(4, 1)" in row.details


def test_c6_parity_row_sees_a_parity_preserving_coupling(monkeypatch):
    # every state also coupled to itself: symmetric, but it keeps the parity
    flips = basis._flips
    monkeypatch.setattr(
        basis, "_flips", lambda states, masks: [*flips(states, masks), (0, states == states)]
    )
    rep = spectral_checks(ring(6))
    assert rep.parity_anticommutes is False
    assert rep.spectrum_asymmetry > 1  # every level shifted up by 1
    assert not c6_rows()["parity anticommutes with the drive, exact integers"].passed
    # the oracle keeps each power on one parity class, so it refuses
    with pytest.raises(ValueError, match=r"drive of .* keeps the excitation parity"):
        taylor_oracle(ring(6), density(), 3)
