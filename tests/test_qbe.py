"""Tests for the matrix brachistochrone flow i d(H+F)/dt = [H, F]."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qbrach.angmom4 import toy_hamiltonian
from qbrach.cliffrep import build_majorana
from qbrach.matcore import BLOCK_SAMPLES, kron_matrix, max_abs, trace_pair, traceless_labels
from qbrach.qbe import (
    IMAG_LABELS,
    MAJORANA_H_SPAN,
    MAX_STEPS,
    BrachSystem,
    DivergenceError,
    QbeError,
    angmom_system,
    assemble_constraint,
    check_isotropic,
    complement_span,
    conserved_residuals,
    drifts,
    initial_invariants,
    integrate_qbe,
    majorana_system,
    _span,
    _spectra,
    trace_project_rhs,
)


def test_label_lists_keep_their_order():
    """The label order sets the summation order of every H and F rebuild, and
    so the bytes of evolve and angmom-conserve."""
    assert MAJORANA_H_SPAN == [("y", "1"), ("z", "z"), ("x", "1"), ("z", "x")]
    assert IMAG_LABELS == [("1", "y"), ("x", "y"), ("y", "1"), ("y", "x"), ("y", "z"), ("z", "y")]


def test_complement_span_partitions_traceless_labels():
    comp = complement_span(MAJORANA_H_SPAN)
    assert len(comp) == 11
    assert not set(comp) & set(MAJORANA_H_SPAN)


def test_complement_span_rejects_identity():
    with pytest.raises(QbeError):
        complement_span([("1", "1")])


def test_majorana_system_spans_and_isotropy():
    sys_ = majorana_system(1.0, (1.0, 1.0, 1.0))
    assert check_isotropic(sys_.h0, sys_.k) == 0
    assert abs(trace_pair(sys_.h0, sys_.f0())) < 1e-12
    # default constraint is the closed-orbit choice F = -E sigma_z (x) 1
    energy = 2.0
    assert max_abs(sys_.f0() + energy * kron_matrix(("z", "1"))) < 1e-12


def test_majorana_hamiltonian_coefficients():
    """H = i m beta + alpha.p projects onto the declared span with the
    expected signs: the (y,1) coefficient is -m, the (x,1) coefficient p_y."""
    m, p = 1.5, (0.25, -0.75, 2.0)
    sys_ = majorana_system(m, p, lam=np.zeros(11))
    coeff = {lab: trace_pair(sys_.h0, kron_matrix(lab)).real / 4.0
             for lab in sys_.h_span}
    assert abs(coeff[("y", "1")] + m) < 1e-14
    assert abs(coeff[("x", "1")] - p[1]) < 1e-14
    assert abs(coeff[("z", "z")] - p[0]) < 1e-14
    assert abs(coeff[("z", "x")] - p[2]) < 1e-14


@pytest.mark.parametrize("sys_", [
    majorana_system(1.3, (0.5, -2.0, 1.25), lam=np.linspace(-1.0, 1.0, 11)),
    angmom_system(toy_hamiltonian((0.3, 0.2, -0.5), (0.1, 0.7, 0.2)), np.linspace(-1.0, 1.0, 9)),
], ids=["majorana", "angmom"])
def test_brach_system_derives_f_span_and_budget(sys_):
    # The F span and the budget k follow from the H span and H0; k keeps the
    # bits of this expression, which every isotropic drift is measured against.
    assert sys_.f_span == tuple(complement_span(sys_.h_span))
    k = float(np.trace(sys_.h0 @ sys_.h0).real / 2.0)
    assert np.float64(sys_.k).tobytes() == np.float64(k).tobytes()
    again = BrachSystem(sys_.h0, sys_.h_span, sys_.lambda0)
    assert (again.f_span, again.k) == (sys_.f_span, sys_.k)


def test_brach_system_rejects_nan_residuals():
    sys_ = majorana_system(1.0, (1.0, 1.0, 1.0))
    lam = sys_.lambda0.copy()
    lam[0] = np.nan
    h0 = sys_.h0.copy()
    h0[0, 0] = np.nan
    for bad in (dict(lambda0=lam), dict(h0=h0)):
        with pytest.raises(QbeError):
            replace(sys_, **bad)


@pytest.mark.parametrize("m, p", [(1e200, (1.0, 1.0, 1.0)), (1.0, (1e200, 1.0, 1.0)),
                                  (1e154, (1.0, 1.0, 1.0)), (np.nan, (1.0, 1.0, 1.0)),
                                  (1.0, (np.inf, 0.0, 0.0))])
def test_majorana_system_rejects_non_finite_energy(m, p):
    # E or k = Tr[H^2/2] = 2 E^2 overflows (m = 1e154 overflows k alone).
    with np.errstate(all="raise"), pytest.raises(QbeError, match="not finite"):
        majorana_system(m, p)


def test_assemble_constraint_shape_check():
    with pytest.raises(QbeError):
        assemble_constraint([("z", "1")], np.zeros(2))


def _reference_constraint(f_span, lam):
    """assemble_constraint as it was: one matrix added per label."""
    f = np.zeros((4, 4), dtype=complex)
    for c, lab in zip(np.asarray(lam, dtype=float), f_span):
        f = f + c * kron_matrix(lab)
    return f


# Coefficients up to 1e8 in magnitude, with the signed zeros and subnormals
# that a product could round or sign differently from the loop drawn explicitly.
WIDE = st.floats(-1e8, 1e8) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320])


@pytest.mark.parametrize("h_span", [MAJORANA_H_SPAN, IMAG_LABELS], ids=["majorana", "angmom"])
@settings(max_examples=300)
@given(data=st.data())
def test_assemble_constraint_equals_per_label_loop(h_span, data):
    f_span = complement_span(h_span)
    lam = data.draw(st.lists(WIDE, min_size=len(f_span), max_size=len(f_span)))
    f = assemble_constraint(f_span, lam)
    assert f.tobytes() == _reference_constraint(f_span, lam).tobytes()


def test_trace_projection_closed_form():
    """Tr[[H,F] a_x] = 8i(lam_{1y} p_z + lam_{xz} m + lam_{yz} p_y):
    exactly three complement labels couple, all others give zero."""
    m, p = 2.0, (1.0, 3.0, -1.0)
    sys_ = majorana_system(m, p, lam=np.zeros(11))
    ax = build_majorana().alpha[0]
    expected = {("1", "y"): 8j * p[2], ("x", "z"): 8j * m, ("y", "z"): 8j * p[1]}
    for lab in sys_.f_span:
        val = trace_project_rhs(sys_.h0, kron_matrix(lab), ax)
        assert val == expected.get(lab, 0.0), lab


def test_integrate_closed_orbit_matches_conjugation():
    """With the default constraint the flow is the analytic conjugation
    H(t) = U H(0) U^dag with diagonal U; drift stays at RK4 accuracy."""
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    energy = np.sqrt(m * m + p @ p)
    sys_ = majorana_system(m, p)
    traj = integrate_qbe(sys_, 0.5, 1e-3)
    h0 = sys_.h0
    worst = 0.0
    for i, t in enumerate(traj.times):
        u = np.diag(np.exp(-1j * t * energy * np.array([1, 1, -1, -1])))
        worst = max(worst, max_abs(traj.h_at(i) - u @ h0 @ u.conj().T))
    assert worst < 1e-9


def test_conserved_residuals_small():
    sys_ = majorana_system(1.0, (1.0, 1.0, 1.0))
    traj = integrate_qbe(sys_, 1.0, 1e-3)
    report = conserved_residuals(traj)
    for name, val in report.items():
        assert val < 1e-9, name


def test_angmom_system_uses_imaginary_labels():
    rng = np.random.default_rng(17)
    m_mat = rng.normal(size=(4, 4))
    m_mat = m_mat - m_mat.T
    sys_ = angmom_system(1j * m_mat, rng.uniform(-1, 1, 9))
    assert sys_.h_span == tuple(IMAG_LABELS)
    assert len(sys_.f_span) == 9


def test_integrate_rejects_bad_step():
    sys_ = majorana_system(1.0, (1.0, 0.0, 0.0))
    with pytest.raises(QbeError):
        integrate_qbe(sys_, 1.0, 0.0)
    # Grids that are not a whole, positive and bounded number of steps.
    for t_end, step in [(1.0, 0.3), (1.0, 2.0), (1.0, float("nan")),
                        (float("inf"), 1e-3), (2.0 * MAX_STEPS, 1.0)]:
        with pytest.raises(QbeError):
            integrate_qbe(sys_, t_end, step)
    assert len(integrate_qbe(sys_, 0.3, 0.1).times) == 4


def _loop_stack(traj, which, rows):
    """Trajectory._stack as a loop adding one label at a time: the reference."""
    c = traj.coeffs[rows]
    a = np.zeros((len(c), 4, 4), dtype=complex)
    for lab in which:
        a = a + c[:, traceless_labels().index(lab), None, None] * kron_matrix(lab)
    return a


def _resum(traj, which, i):
    return _loop_stack(traj, which, [i])[0]


def _per_sample_residuals(traj, sys_):
    """conserved_residuals as a loop over single samples: the reference."""
    a0 = _resum(traj, traj.system.h_span, 0) + _resum(traj, traj.system.f_span, 0)
    tr_a2_0 = np.trace(a0 @ a0).real
    eig0 = np.sort(np.linalg.eigvalsh(a0))
    iso = cross = tr_a2 = spec = 0.0
    for i in range(len(traj.times)):
        h = _resum(traj, traj.system.h_span, i)
        f = _resum(traj, traj.system.f_span, i)
        a = h + f
        iso = max(iso, check_isotropic(h, sys_.k))
        cross = max(cross, abs(trace_pair(h, f)))
        tr_a2 = max(tr_a2, abs(np.trace(a @ a).real - tr_a2_0))
        spec = max(spec, max_abs(np.sort(np.linalg.eigvalsh(a)) - eig0))
    return {"isotropic_drift": iso, "cross_trace_drift": cross,
            "total_square_drift": tr_a2, "spectrum_drift": spec}


@pytest.fixture(scope="module")
def generic_flow():
    """A Majorana system with a random constraint, integrated over 5001 samples."""
    lam = np.random.default_rng(23).uniform(-1, 1, 11)
    sys_ = majorana_system(1.3, (0.5, -2.0, 1.25), lam=lam)
    return sys_, integrate_qbe(sys_, 5.0, 1e-3)


@pytest.mark.parametrize("samples", [1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1, 5001])
def test_blocked_residuals_equal_per_sample_loop(generic_flow, samples):
    sys_, full = generic_flow
    traj = replace(full, times=full.times[:samples], coeffs=full.coeffs[:samples])
    report = conserved_residuals(traj)
    assert report == _per_sample_residuals(traj, sys_)
    assert report["spectrum_drift"] > 0 or samples == 1
    for i in (0, samples - 1, -1):
        assert np.array_equal(traj.h_at(i), _resum(traj, traj.system.h_span, i))
        assert np.array_equal(traj.f_at(i), _resum(traj, traj.system.f_span, i))


def test_nan_coefficient_gives_nan_residuals(generic_flow):
    sys_, full = generic_flow
    coeffs = full.coeffs[:600].copy()
    coeffs[300, traceless_labels().index(("z", "1"))] = np.nan  # an F label
    report = conserved_residuals(replace(full, times=full.times[:600], coeffs=coeffs))
    assert np.isnan(report["cross_trace_drift"])
    assert np.isnan(report["total_square_drift"])
    assert np.isnan(report["spectrum_drift"])
    assert report["isotropic_drift"] < 1e-9  # H is untouched


@pytest.mark.parametrize("entry", [(0, 0), (0, 3)])  # eigvalsh reads the lower triangle
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["h", "f"])
def test_non_finite_matrix_gives_nan_only_in_its_row(generic_flow, entry, bad, which):
    # One non-finite matrix once made the spectrum drift of its whole stack NaN.
    sys_, traj = generic_flow
    invariants = initial_invariants(traj)
    h = np.stack([traj.h_at(i) for i in range(4)])
    f = np.stack([traj.f_at(i) for i in range(4)])
    (h if which == "h" else f)[(2, *entry)] = bad
    with np.errstate(invalid="ignore"):
        stacked = np.column_stack(drifts(h, f, sys_.k, *invariants))
        rows = np.array([drifts(h[i], f[i], sys_.k, *invariants) for i in range(4)])
    assert np.isnan(stacked[2, 3]) and np.isnan(rows[2, 3])
    others = [0, 1, 3]
    assert not np.isnan(stacked[others]).any()
    assert stacked[others].tobytes() == rows[others].tobytes()
    assert np.array_equal(stacked[2], rows[2], equal_nan=True)


@pytest.mark.parametrize("rows", [0, 5000, slice(0, 1), slice(0, BLOCK_SAMPLES), slice(7, 900, 3)])
def test_spectra_of_finite_matrices_equal_eigvalsh(generic_flow, rows):
    # _spectra masks every stack; on all-finite matrices it must give the
    # bytes of a direct eigvalsh call, for one matrix, a stack and a
    # non-contiguous view of a stack.
    _, traj = generic_flow
    a = traj._stack(traj.system.h_span, rows) + traj._stack(traj.system.f_span, rows)
    herm = np.random.default_rng(5).normal(size=(9, 4, 4, 2)).view(complex)[..., 0]
    for x in (a, a.swapaxes(-1, -2), herm + herm.conj().swapaxes(-1, -2)):
        assert x.shape[-2:] == (4, 4) and np.isfinite(x).all()
        assert _spectra(x).tobytes() == np.linalg.eigvalsh(x).tobytes()


def test_span_basis_cannot_be_written(generic_flow):
    # Both cached arrays of a span, its columns and its basis, are shared by
    # every rebuild: neither may be written or made writeable again.
    _, traj = generic_flow
    for which, rebuild in ((traj.system.h_span, traj.h_at), (traj.system.f_span, traj.f_at)):
        before = rebuild(7).tobytes()
        span = _span(which)
        for array in span:
            with pytest.raises(ValueError):
                array[0] = 1
            with pytest.raises(ValueError):
                array.flags.writeable = True
        assert all(again is cached for again, cached in zip(_span(which), span, strict=True))
        assert rebuild(7).tobytes() == before


# The einsum right-hand side and the RK4 loop of integrate_qbe before its
# projection became a gather: the references the integrator must equal bit
# for bit, signed zeros included.

def _einsum_rhs(sys_):
    labels = tuple(traceless_labels())
    basis = np.stack([kron_matrix(lab) for lab in labels])
    flat = basis.reshape(len(labels), 16)
    h_mask = np.array([lab in sys_.h_span for lab in labels])
    f_mask = np.array([lab in sys_.f_span for lab in labels])

    def rhs(c):
        h = np.dot((c * h_mask).reshape(1, -1), flat).reshape(4, 4)
        f = np.dot((c * f_mask).reshape(1, -1), flat).reshape(4, 4)
        comm = -1j * (h @ f - f @ h)
        return np.einsum("ij,aji->a", comm, basis).real / 4.0

    return rhs


def _reference_coeffs(sys_, step, n):
    rhs = _einsum_rhs(sys_)
    a0 = sys_.h0 + _reference_constraint(sys_.f_span, sys_.lambda0)
    c = np.array([trace_pair(a0, kron_matrix(lab)).real / 4.0 for lab in traceless_labels()])
    out = [c]
    for _ in range(n):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * step * k1)
        k3 = rhs(c + 0.5 * step * k2)
        k4 = rhs(c + step * k3)
        c = c + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(c)
    return np.array(out)


STEPS = 500
UNIT = st.floats(-1.0, 1.0)
# A failing example is reported as drawn: shrinking it would rerun a
# 500-step integration hundreds of times.
EXACTNESS = settings(max_examples=12, phases=[Phase.explicit, Phase.generate])


def _assert_bit_exact(sys_, step):
    """integrate_qbe, h_at, f_at and every blocks() stack equal the references."""
    traj = integrate_qbe(sys_, STEPS * step, step)
    assert traj.coeffs.tobytes() == _reference_coeffs(sys_, step, STEPS).tobytes()
    for i in (0, 1, STEPS // 2, STEPS, -1):
        assert traj.h_at(i).tobytes() == _resum(traj, traj.system.h_span, i).tobytes()
        assert traj.f_at(i).tobytes() == _resum(traj, traj.system.f_span, i).tobytes()
    seen = 0
    for lo, h, f in traj.blocks():
        rows = slice(lo, lo + BLOCK_SAMPLES)
        assert h.tobytes() == _loop_stack(traj, traj.system.h_span, rows).tobytes()
        assert f.tobytes() == _loop_stack(traj, traj.system.f_span, rows).tobytes()
        seen += len(h)
    assert seen == STEPS + 1


@EXACTNESS
@given(m=st.floats(0.0, 3.0), p=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       lam=st.none() | st.tuples(*[UNIT] * 11), step=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_majorana_flow_is_bit_exact(m, p, lam, step):
    _assert_bit_exact(majorana_system(m, p, lam), step)


@EXACTNESS
@given(n=st.tuples(*[UNIT] * 3), l=st.tuples(*[UNIT] * 3), f=st.tuples(*[UNIT] * 9),
       step=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_angmom_flow_is_bit_exact(n, l, f, step):
    _assert_bit_exact(angmom_system(toy_hamiltonian(n, l), f), step)


_MAJORANA = st.builds(majorana_system, st.floats(0.0, 3.0), st.tuples(*[st.floats(-3.0, 3.0)] * 3),
                      st.tuples(*[UNIT] * 11))
_ANGMOM = st.builds(lambda n, l, f: angmom_system(toy_hamiltonian(n, l), f),
                    st.tuples(*[UNIT] * 3), st.tuples(*[UNIT] * 3), st.tuples(*[UNIT] * 9))


@EXACTNESS
@given(sys_=st.one_of(_MAJORANA, _ANGMOM), step=st.floats(1e-4, 5e-2))
def test_flow_is_bit_exact_at_any_step(sys_, step):
    # The step operands are arrays built once per integration; each must
    # hold the value of the float arithmetic 0.5 * step, step and step / 6.0
    # for a step of any rounding, not only the round ones sampled above.
    steps = BLOCK_SAMPLES + 44
    traj = integrate_qbe(sys_, steps * step, step)
    assert traj.coeffs.tobytes() == _reference_coeffs(sys_, step, steps).tobytes()


@EXACTNESS
@given(sys_=st.one_of(_MAJORANA, _ANGMOM), step=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_each_row_rebuild_equals_its_block_row(sys_, step):
    # h_at and f_at rebuild one row by a 1-D product, blocks() a block by a
    # 2-D one: every row must carry the same bits either way.
    full = integrate_qbe(sys_, BLOCK_SAMPLES * step, step)
    for rows in (1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1):
        traj = replace(full, times=full.times[:rows], coeffs=full.coeffs[:rows])
        seen = 0
        for lo, h, f in traj.blocks():
            for j in range(len(h)):
                row_h, row_f = traj.h_at(lo + j), traj.f_at(lo + j)
                assert row_h.shape == row_f.shape == (4, 4)
                assert row_h.tobytes() == h[j].tobytes() and row_f.tobytes() == f[j].tobytes()
            seen += len(h)
        assert seen == rows


def _evolve_drifts(traj, sys_, i):
    """The four drifts of sample i by the arithmetic evolve once used for its
    CSV columns, before it called drifts: the reference."""
    a0 = traj.h_at(0) + traj.f_at(0)
    h, f = traj.h_at(i), traj.f_at(i)
    a = h + f
    return [check_isotropic(h, sys_.k), abs(np.trace(h @ f)),
            abs(np.trace(a @ a).real - np.trace(a0 @ a0).real),
            max_abs(np.sort(np.linalg.eigvalsh(a)) - np.sort(np.linalg.eigvalsh(a0)))]


@EXACTNESS
@given(m=st.floats(0.0, 3.0), p=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       lam=st.none() | st.tuples(*[UNIT] * 11), step=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_stacked_drifts_equal_row_by_row(m, p, lam, step):
    # evolve and conserved_residuals call drifts once per block; each row
    # must see the bits of a call on that row alone.
    sys_ = majorana_system(m, p, lam)
    traj = integrate_qbe(sys_, 300 * step, step)
    invariants = initial_invariants(traj)
    rows = np.array([drifts(traj.h_at(i), traj.f_at(i), sys_.k, *invariants)
                     for i in range(len(traj.times))])
    stacked = np.concatenate([np.stack(drifts(h, f, sys_.k, *invariants), axis=1)
                              for _, h, f in traj.blocks()])
    assert rows.shape == stacked.shape == (301, 4)
    assert stacked.tobytes() == rows.tobytes()
    for i in (0, 1, BLOCK_SAMPLES, 300):
        assert rows[i].tobytes() == np.array(_evolve_drifts(traj, sys_, i)).tobytes()


@pytest.mark.parametrize("sys_, step", [
    (majorana_system(1.3, (0.5, -2.0, 1.25), lam=np.linspace(-1.0, 1.0, 11)), 1e-2),
    (majorana_system(0.0, (0.0, 0.0, 0.0)), 1e-2),  # E = 0: H and F are zero
    (majorana_system(0.0, (0.0, 1.0, 0.0)), 5e-2),
    (angmom_system(toy_hamiltonian((0.3, 0.2, -0.5), (0.1, 0.7, 0.2)),
                   np.linspace(-1.0, 1.0, 9)), 1e-2),
])
@pytest.mark.parametrize("steps", [1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
def test_integration_is_bit_exact_at_block_edges(sys_, step, steps):
    traj = integrate_qbe(sys_, steps * step, step)
    assert traj.coeffs.tobytes() == _reference_coeffs(sys_, step, steps).tobytes()


def test_back_to_back_integrations_share_no_buffers():
    first = majorana_system(1.3, (0.5, -2.0, 1.25))
    second = angmom_system(toy_hamiltonian((0.3, 0.2, -0.5), (0.1, 0.7, 0.2)),
                           np.linspace(-1.0, 1.0, 9))
    a = integrate_qbe(first, 3.0, 1e-2)
    a_bytes = a.coeffs.tobytes()
    b = integrate_qbe(second, 3.0, 1e-2)
    again = integrate_qbe(first, 3.0, 1e-2)
    assert a.coeffs.tobytes() == a_bytes == again.coeffs.tobytes()
    assert a_bytes == _reference_coeffs(first, 1e-2, 300).tobytes()
    assert b.coeffs.tobytes() == _reference_coeffs(second, 1e-2, 300).tobytes()
    for traj in (a, b, again):
        assert traj.coeffs.flags.owndata and traj.coeffs.shape == (301, 15)
    assert not np.shares_memory(a.coeffs, again.coeffs)


# t_end and step of a diverging Majorana flow, and the block of BLOCK_SAMPLES
# steps that reaches the first non-finite row: the first block, a later full
# block, and a last block cut short (350 steps).
@pytest.mark.parametrize("t_end, step, block", [(1000.0, 10.0, 0), (1000.0, 1.0, 1),
                                                (350.0, 1.0, 1)])
def test_divergence_names_first_non_finite_row(t_end, step, block):
    sys_ = majorana_system(1.0, (1.0, 1.0, 1.0))
    n = round(t_end / step)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _reference_coeffs(sys_, step, n)
    row = np.flatnonzero(~np.isfinite(ref).all(axis=1))[0]
    assert (row - 1) // BLOCK_SAMPLES == block
    with np.errstate(all="raise"), pytest.raises(DivergenceError) as err:
        integrate_qbe(sys_, t_end, step)
    assert str(err.value) == f"non-finite coefficients at t = {(np.arange(n + 1) * step)[row]}"


def _majorana_draw(seed):
    rng = np.random.default_rng(seed)
    return majorana_system(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0, 3),
                           rng.uniform(-2.0, 2.0, 11))


def _angmom_draw(seed):
    rng = np.random.default_rng(seed)
    return angmom_system(toy_hamiltonian(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)),
                         rng.uniform(-1.0, 1.0, 9))


@pytest.mark.parametrize("sys_", [*map(_majorana_draw, range(6)), *map(_angmom_draw, range(2))],
                         ids=[*(f"majorana-{s}" for s in range(6)),
                              *(f"angmom-{s}" for s in range(2))])
def test_rk4_is_fourth_order(sys_):
    # Halving the step divides the error by 2^4 = 16 (a 2nd-order method
    # would give 4).  Both errors are the largest over the coarse grid's
    # samples, against a run at an eighth of the finer step.
    t_end, step = 2.0, 1e-2
    ref = integrate_qbe(sys_, t_end, step / 8).coeffs
    err = [max_abs(integrate_qbe(sys_, t_end, h).coeffs - ref[::round(8 * h / step)])
           for h in (2 * step, step)]
    assert 12 <= err[0] / err[1] <= 20


def _rkmk4(sys_, t_end, step):
    """The flow's coefficients by RKMK4 (Munthe-Kaas, Appl. Numer. Math. 29,
    1999), a reference independent of integrate_qbe.  The flow is the Lax
    equation A' = [B(A), A] with B(A) = -i P_H(A), since [H, F] = [H, A]; each
    step moves A by exp(W) A exp(-W), W in su(4), so A stays isospectral."""
    labels = traceless_labels()
    ys = np.stack([kron_matrix(lab) for lab in labels])
    trace_with = ys.transpose(0, 2, 1).reshape(len(labels), 16) / 4.0  # row a: Tr[A Y_a] / 4
    in_h = np.array([[lab in sys_.h_span] for lab in labels])
    generator = -1j * step * in_h * ys.reshape(len(labels), 16)

    def coeffs(a):
        return (trace_with @ a.ravel()).real

    def field(a):  # step * B(A)
        return (coeffs(a) @ generator).reshape(4, 4)

    def act(w, a):  # exp(W) A exp(-W), with exp(W) from eigh of the Hermitian i W
        vals, vecs = np.linalg.eigh(1j * w)
        u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
        return u @ a @ u.conj().T

    def comm(x, y):
        return x @ y - y @ x

    a = sys_.h0 + _reference_constraint(sys_.f_span, sys_.lambda0)
    out = [coeffs(a)]
    for _ in range(round(t_end / step)):
        f1 = field(a)
        f2 = field(act(f1 / 2, a))
        f3 = field(act(f2 / 2 - comm(f1, f2) / 8, a))
        f4 = field(act(f3, a))
        a = act((f1 + 2 * f2 + 2 * f3 + f4) / 6 - comm(f1, f4) / 12, a)
        out.append(coeffs(a))
    return np.array(out)


def _assert_rk4_agrees_with_rkmk4(sys_):
    # Both methods are of order 4, so at step 1e-3 up to t = 2 they agree to
    # about 1e-9 on Majorana systems: 4e-12 to 2.1e-9 over 40 uniform draws,
    # up to 1.7e-8 at corners of the box (m = 3, |p_i| = 3, |lambda_a| = 2).
    coeffs = integrate_qbe(sys_, 2.0, 1e-3).coeffs
    assert max_abs(coeffs - _rkmk4(sys_, 2.0, 1e-3)) < 5e-8


# Each draw is one RKMK4 run of 2,000 steps, about 0.3 s: no shrinking.
@settings(max_examples=4, phases=[Phase.explicit, Phase.generate])
@given(sys_=st.builds(majorana_system, st.floats(0.1, 3.0), st.tuples(*[st.floats(-3.0, 3.0)] * 3),
                      st.tuples(*[st.floats(-2.0, 2.0)] * 11)))
def test_rk4_agrees_with_rkmk4_on_majorana(sys_):
    _assert_rk4_agrees_with_rkmk4(sys_)


@pytest.mark.parametrize("sys_", map(_angmom_draw, range(2)), ids=["angmom-0", "angmom-1"])
def test_rk4_agrees_with_rkmk4_on_angmom(sys_):
    _assert_rk4_agrees_with_rkmk4(sys_)
