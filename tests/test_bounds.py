import numpy as np
import pytest

from gsqc.bounds import chain_gap, check_bounds, scaling_fit, upper_bound
from gsqc.eigensolve import analytic_levels, dense_spectrum
from gsqc.errors import BoundViolationError
from gsqc.hamiltonian import assemble
from gsqc.program import Pin, Program, gate_cid, gate_cnot


def measured_gap(prog):
    _, H = assemble(prog)
    return dense_spectrum(H).gap


@pytest.mark.parametrize("N", [500, 1000, 2500, 5000])
def test_chain_gap_keeps_relative_accuracy_at_large_n(N):
    # 2(1 - cos x) by its series; the next term, 2x^10/10!, is below 1e-28 here
    x = np.pi / (N + 1)
    series = x ** 2 - x ** 4 / 12 + x ** 6 / 360 - x ** 8 / 20160
    assert chain_gap(N) == pytest.approx(series, rel=1e-15, abs=0)
    assert analytic_levels(N)[2] == pytest.approx(series, rel=1e-15, abs=0)


def test_upper_bound_formula():
    prog = Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)])
    assert upper_bound(prog) == pytest.approx(1.0 / 6.0)


def test_upper_bound_minimum_rule():
    prog = Program(num_qubits=2, num_steps=4,
                   gates=[gate_cnot(1, 0, 1), gate_cnot(3, 0, 1)])
    assert upper_bound(prog) == pytest.approx(min(1.0 / 4.0, 1.0 / 6.0))


def test_upper_bound_gate_free_is_exact_chain_gap():
    prog = Program(num_qubits=1, num_steps=5)
    assert upper_bound(prog) == pytest.approx(chain_gap(5))
    assert measured_gap(prog) == pytest.approx(chain_gap(5), abs=1e-10)


@pytest.mark.parametrize("beta", [None, 0.5])
def test_upper_bound_gate_free_pinned_is_a_bound_not_the_gap(beta):
    # the pin lifts the other column's chain only to below the chain gap
    prog = Program(num_qubits=1, num_steps=8, input_pins=[Pin(0, 0)], tip_beta=beta)
    assert measured_gap(prog) < 0.25 * upper_bound(prog)
    if beta is None:
        assert measured_gap(prog) == pytest.approx(0.0273, abs=1e-4)
        assert upper_bound(prog) == pytest.approx(0.1206, abs=1e-4)


def test_measured_gap_below_bound():
    prog = Program(num_qubits=2, num_steps=2, gates=[gate_cnot(1, 0, 1)])
    gap = measured_gap(prog)
    assert 0 < gap <= 0.5
    bounds = check_bounds(prog, gap)
    assert bounds.satisfied()
    assert bounds.alpha_empirical == pytest.approx(gap * 3 ** 4)


def test_multi_gate_instances_respect_bound():
    layouts = [
        (2, 6, [gate_cnot(2, 0, 1), gate_cnot(5, 0, 1)]),
        (3, 4, [gate_cnot(1, 0, 1), gate_cnot(3, 1, 2)]),
        (3, 4, [gate_cid(2, 0, 1), gate_cnot(4, 1, 2)]),
    ]
    for M, N, gates in layouts:
        prog = Program(num_qubits=M, num_steps=N, gates=gates)
        gap = measured_gap(prog)
        assert 0 < gap <= upper_bound(prog) * (1 + 1e-12)


def test_tipped_bound_holds_and_scale_is_order_one():
    for N in (2, 4, 6):
        j = max(1, N // 2)
        for beta in (0.5, 1.0 / np.sqrt(2 * N)):
            prog = Program(num_qubits=2, num_steps=N, gates=[gate_cnot(j, 0, 1)],
                           tip_beta=beta)
            gap = measured_gap(prog)
            assert 0 < gap <= upper_bound(prog) * (1 + 1e-12)
            # gap over the order-of-magnitude tipped scale eps/((N+1)(N + 1/beta^2))
            c = gap * (N + 1) * (N + 1.0 / beta ** 2)
            assert 0.05 < c < 10.0


def test_scaling_fit_exact_power_law():
    fit = scaling_fit([(n, 3.7 / (n + 1) ** 2) for n in range(4, 17)])
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
    assert fit.constant == pytest.approx(3.7, rel=1e-12)
    assert fit.max_residual < 1e-12


def test_scaling_fit_ladder_gap():
    fit = scaling_fit([(n, analytic_levels(n)[1]) for n in range(4, 17)])
    assert abs(fit.exponent + 2.0) < 0.05
    assert abs(fit.constant - np.pi**2 / 4.0) < 0.05 * np.pi**2 / 4.0


def test_scaling_fit_cnot_family_exponent_window():
    samples = []
    for n in range(4, 13, 2):
        prog = Program(num_qubits=2, num_steps=n, gates=[gate_cnot((n + 1) // 2, 0, 1)])
        samples.append((n, measured_gap(prog)))
    fit = scaling_fit(samples)
    # inverse-square scaling with a finite-size transient that steepens the
    # fit slightly below -2.3 on this grid (approaches -2 from below)
    assert -2.4 <= fit.exponent <= -1.7


def test_scaling_fit_validation():
    with pytest.raises(ValueError, match="4 samples"):
        scaling_fit([(2, 0.1), (3, 0.05), (4, 0.02)])
    with pytest.raises(ValueError, match="positive"):
        scaling_fit([(2, 0.1), (3, 0.0), (4, 0.02), (5, 0.01)])


def test_check_bounds_raises_on_violation():
    prog = Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)])
    with pytest.raises(BoundViolationError, match="exceeds"):
        check_bounds(prog, gap=1.0)


@pytest.mark.parametrize("eps", [1e-12, 1.0, 1e9])
def test_bound_slack_scales_with_epsilon(eps):
    prog = Program(num_qubits=2, num_steps=4, gates=[gate_cnot(2, 0, 1)], epsilon=eps)
    upper = upper_bound(prog)
    assert upper == pytest.approx(eps / 6.0)
    assert check_bounds(prog, upper).satisfied()
    with pytest.raises(BoundViolationError, match="exceeds"):
        check_bounds(prog, 1.01 * upper)


def test_alpha_floor_positive_across_family():
    alphas = []
    for n in range(2, 8):
        for j in range(1, n + 1):
            prog = Program(num_qubits=2, num_steps=n, gates=[gate_cnot(j, 0, 1)])
            bounds = check_bounds(prog, measured_gap(prog))
            alphas.append(bounds.alpha_empirical)
    assert min(alphas) > 0.5  # family floor is comfortably bounded away from zero
