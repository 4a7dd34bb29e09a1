"""Sparse Fock reference (tests/_fock.py): algebra, ladder operators,
dense-oracle parity."""

import math

import numpy as np
import pytest

from polsim.errors import ParameterError
from _fock import (
    FockState,
    ModeExpr,
    ModeId,
    ModeRegistry,
    RegistryError,
    apply_annihilation,
    apply_creation,
    apply_expr,
    inner_product,
    pair_expectation,
    unit_expr,
    vacuum,
)
from _oracles import DenseFock, random_state

S1X = ModeId("S1", "x")
S2X = ModeId("S2", "x")
I1 = ModeId("I1", "xp")

REG3 = ModeRegistry((S1X, S2X, I1))


def occ3(ns1x=0, ns2x=0, ni1=0):
    return (ns1x, ns2x, ni1)


# ---------------------------------------------------------------------------
# identifiers and registry
# ---------------------------------------------------------------------------

def test_mode_id_rejects_unknown_label():
    with pytest.raises(ParameterError):
        ModeId("S3", "x")


def test_mode_id_polarization_must_match_beam():
    with pytest.raises(ParameterError):
        ModeId("S1", "xp")
    with pytest.raises(ParameterError):
        ModeId("I1", "x")
    assert str(ModeId("I1", "xp")) == "I1.xp"


def test_registry_rejects_duplicates_and_unknown_lookups():
    with pytest.raises(ParameterError):
        ModeRegistry((S1X, S1X))
    with pytest.raises(ParameterError):
        ModeRegistry(())
    reg = ModeRegistry((S1X, I1))
    assert reg.index(I1) == 1
    assert S2X not in reg
    with pytest.raises(RegistryError):
        reg.index(S2X)


def test_registry_value_equality():
    assert ModeRegistry((S1X, I1)) == ModeRegistry((S1X, I1))
    assert ModeRegistry((S1X, I1)) != ModeRegistry((I1, S1X))
    assert len(REG3) == 3
    assert tuple(REG3) == (S1X, S2X, I1)


# ---------------------------------------------------------------------------
# state construction and validation
# ---------------------------------------------------------------------------

def test_vacuum_has_one_unit_term():
    vac = vacuum(REG3)
    assert dict(vac.terms) == {occ3(): 1.0 + 0j}
    assert vac.truncation_loss == 0.0


def test_state_validation():
    with pytest.raises(ParameterError):
        FockState(REG3, {(0, 0): 1.0})  # wrong tuple length
    with pytest.raises(ParameterError):
        FockState(REG3, {(0, -1, 0): 1.0})
    with pytest.raises(ParameterError):
        FockState(REG3, {(2, 1, 0): 1.0})  # total 3 > truncation 2
    with pytest.raises(ParameterError):
        FockState(REG3, {}, truncation_order=0)
    with pytest.raises(ParameterError):
        FockState(REG3, {}, prune_threshold=-0.1)


def test_add_requires_same_registry():
    other = ModeRegistry((S1X, I1))
    with pytest.raises(RegistryError):
        vacuum(REG3) + vacuum(other)


def test_scalar_and_addition_algebra():
    vac = vacuum(REG3)
    one = apply_creation(vac, S1X)
    s = 2.0 * vac + (0.5 + 0.5j) * one
    assert s.amplitude(occ3()) == 2.0
    assert s.amplitude(occ3(ns1x=1)) == 0.5 + 0.5j
    assert s.amplitude(occ3(ni1=2)) == 0.0
    # a state minus itself cancels exactly; zero amplitudes are dropped
    z = s + (-1.0) * s
    assert dict(z.terms) == {}


def test_prune_threshold_drops_small_amplitudes_boundedly():
    """Pruning may shift any inner product by at most threshold * term count."""
    vac = vacuum(REG3, prune_threshold=1e-3)
    tiny = 1e-5 * apply_creation(vac, I1)
    kept = vac + tiny
    assert kept.amplitude(occ3(ni1=1)) == 0.0
    probe = vacuum(REG3) + apply_creation(vacuum(REG3), I1)
    exact = 1.0 + 1e-5
    assert abs(inner_product(probe, kept) - exact) <= 1e-3 * 2


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_creation_on_vacuum():
    state = apply_creation(vacuum(REG3), S1X)
    assert dict(state.terms) == {occ3(ns1x=1): 1.0 + 0j}


def test_creation_bosonic_enhancement():
    one = apply_creation(vacuum(REG3), S1X)
    two = apply_creation(one, S1X)
    assert two.amplitude(occ3(ns1x=2)) == pytest.approx(math.sqrt(2), abs=0)


def test_creation_on_superposition():
    # (0.5 |vac> + 0.5 |1_I1>) --a+_S2x--> 0.5 |1_S2x> + 0.5 |1_S2x 1_I1>
    s = 0.5 * vacuum(REG3) + 0.5 * apply_creation(vacuum(REG3), I1)
    out = apply_creation(s, S2X)
    assert out.amplitude(occ3(ns2x=1)) == 0.5
    assert out.amplitude(occ3(ns2x=1, ni1=1)) == 0.5
    assert len(out.terms) == 2


def test_annihilation_ladder():
    vac = vacuum(REG3)
    assert dict(apply_annihilation(vac, S1X).terms) == {}
    one = apply_creation(vac, S1X)
    assert dict(apply_annihilation(one, S1X).terms) == {occ3(): 1.0 + 0j}
    two = FockState(REG3, {occ3(ns1x=2): 1.0 + 0j})
    down = apply_annihilation(two, S1X)
    assert down.amplitude(occ3(ns1x=1)) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_creation_past_truncation_records_loss():
    two = apply_creation(apply_creation(vacuum(REG3), S1X), S1X)
    # |2> has amplitude sqrt(2); pushing to |3> discards (n+1)*|amp|^2 = 3*2
    three = apply_creation(two, S1X)
    assert dict(three.terms) == {}
    assert three.truncation_loss == pytest.approx(6.0, rel=1e-15)

    mixed = 0.6 * vacuum(REG3) + 0.8 * apply_creation(
        apply_creation(vacuum(REG3), I1), S1X
    )
    out = apply_creation(mixed, S1X)
    assert out.amplitude(occ3(ns1x=1)) == pytest.approx(0.6, abs=0)
    # the two-photon term is discarded with weight (1+1)*0.64
    assert out.truncation_loss == pytest.approx(1.28, rel=1e-15)


def test_commutator_is_identity_below_truncation():
    """[a, a+] = 1 on every basis state with room for one more photon."""
    for occ in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        basis = FockState(REG3, {occ: 1.0 + 0j})
        for mode in REG3:
            lhs = apply_annihilation(apply_creation(basis, mode), mode)
            rhs = apply_creation(apply_annihilation(basis, mode), mode)
            diff = lhs + (-1.0) * rhs
            assert dict(diff.terms) == {occ: pytest.approx(1.0 + 0j, abs=1e-15)}


# ---------------------------------------------------------------------------
# inner products and expectations
# ---------------------------------------------------------------------------

def test_inner_product_basics():
    vac = vacuum(REG3)
    assert inner_product(vac, vac) == 1.0
    a = apply_creation(vac, S1X)
    b = apply_creation(vac, S2X)
    assert inner_product(a, b) == 0.0
    assert inner_product(a, a) == 1.0


def test_inner_product_conjugates_the_bra():
    vac = vacuum(REG3)
    assert inner_product(1j * vac, vac) == -1j
    assert inner_product(vac, 1j * vac) == 1j


def test_pair_expectation_basics():
    vac = vacuum(REG3)
    assert pair_expectation(vac, unit_expr(S1X), unit_expr(S1X)) == 0.0
    one = apply_creation(vac, S1X)
    assert pair_expectation(one, unit_expr(S1X), unit_expr(S1X)) == 1.0


def test_linearity_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_state(REG3, rng)
        b = random_state(REG3, rng)
        c = random_state(REG3, rng)
        alpha = complex(rng.normal(), rng.normal())
        lhs = inner_product(alpha * a + b, c)
        rhs = alpha.conjugate() * inner_product(a, c) + inner_product(b, c)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-12

        p = ModeExpr({S1X: alpha, I1: 1.5})
        q = ModeExpr({S2X: 2.0, I1: -0.5j})
        lhs = pair_expectation(a, p, alpha * q)
        rhs = alpha * pair_expectation(a, p, q)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-12


def test_pair_expectation_conjugate_symmetry():
    rng = np.random.default_rng(7)
    s = random_state(REG3, rng)
    p = ModeExpr({S1X: 1.0 + 2j})
    q = ModeExpr({S2X: -0.5, I1: 0.25j})
    assert pair_expectation(s, p, q) == pytest.approx(
        pair_expectation(s, q, p).conjugate(), rel=1e-12
    )


# ---------------------------------------------------------------------------
# mode expressions
# ---------------------------------------------------------------------------

def test_mode_expr_arithmetic_is_exact():
    e = unit_expr(S1X) + 2.0 * unit_expr(I1)
    f = e - unit_expr(S1X)
    assert f.coefficient(S1X) == 0.0
    assert S1X not in f.terms
    assert f.coefficient(I1) == 2.0
    assert (0.0 * e).terms == {}
    assert e.coefficient_norm_sq() == pytest.approx(5.0, abs=0)


def test_apply_expr_distributes():
    vac = vacuum(REG3)
    s = apply_creation(apply_creation(vac, S1X), I1)
    e = ModeExpr({S1X: 2.0, I1: 1j})
    out = apply_expr(e, s)
    by_hand = 2.0 * apply_annihilation(s, S1X) + 1j * apply_annihilation(s, I1)
    assert dict(out.terms) == dict(by_hand.terms)


# ---------------------------------------------------------------------------
# dense-oracle equivalence
# ---------------------------------------------------------------------------

def test_dense_oracle_agrees_on_all_operations():
    """Every sparse operation matches explicit dense linear algebra to 1e-12."""
    dense = DenseFock(REG3, truncation_order=2)
    rng = np.random.default_rng(2024)
    for _ in range(25):
        s = random_state(REG3, rng)
        v = dense.vector(s)
        for mode in REG3:
            up = dense.vector(apply_creation(s, mode))
            np.testing.assert_allclose(up, dense.creation(mode) @ v, atol=1e-12)
            down = dense.vector(apply_annihilation(s, mode))
            np.testing.assert_allclose(down, dense.annihilation(mode) @ v, atol=1e-12)
        t = random_state(REG3, rng)
        ip = inner_product(s, t)
        assert ip == pytest.approx(complex(dense.vector(s).conj() @ dense.vector(t)), rel=1e-12)
        p = ModeExpr({S1X: complex(rng.normal(), rng.normal()), I1: 0.5})
        q = ModeExpr({S2X: 1.25, I1: complex(rng.normal(), rng.normal())})
        pe = pair_expectation(s, p, q)
        mp, mq = dense.expr_matrix(p), dense.expr_matrix(q)
        want = complex(v.conj() @ (mp.conj().T @ mq @ v))
        assert pe == pytest.approx(want, rel=1e-12, abs=1e-12)
