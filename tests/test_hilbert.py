from itertools import combinations, product
from math import sqrt

import numpy as np
import pytest
import scipy.sparse as sparse

from blockadesim import hilbert
from blockadesim.hilbert import (
    BasisError,
    Operator,
    collective_op,
    dephasing_term,
    dipole_term,
    drive_term,
    enumerate_basis,
    hermiticity_defect,
    number_op,
    pair_mode,
    rydberg_number,
    symmetric_embedding,
)

from .reference import expected_states, listed_states, recount


def test_enumeration_counts():
    assert enumerate_basis(2, ("r",), 2).dim == 3
    assert enumerate_basis(3, ("r",), 3, mode="pair-resolved").dim == 8
    # stars-and-bars: occupations of (q, r) with at most 3 excitations
    assert enumerate_basis(20, ("q", "r"), 3).dim == 10


def test_enumeration_pair_modes():
    b = enumerate_basis(6, ("r", "p'", "p''"), 3)
    tok = pair_mode("r", "r")
    assert tok in b.levels
    # at most one occupied transfer pair, holding two excitations
    for i in range(b.dim):
        assert b.occupations(tok)[i] <= 1
        if b.occupations(tok)[i] == 1:
            assert b.excitation_counts[i] >= 2
    # gate register grows one quasi-mode per channel
    bg = enumerate_basis(4, ("r+", "r-", "p'", "p''"), 2, ryd_max=2)
    for a, c in (("r+", "r+"), ("r+", "r-"), ("r-", "r-")):
        assert pair_mode(a, c) in bg.levels


def test_enumeration_ryd_cap():
    b = enumerate_basis(6, ("q", "r"), 4, ryd_max=1)
    assert all(b.occupations("r")[i] <= 1 for i in range(b.dim))


def test_enumeration_errors():
    with pytest.raises(BasisError):
        enumerate_basis(2, ("r",), 3)          # n_max > N
    with pytest.raises(BasisError):
        enumerate_basis(hilbert.N_ORACLE + 1, ("r",), 2, mode="pair-resolved")
    with pytest.raises(BasisError):
        enumerate_basis(4, ("r", "p'"), 2)     # lone pair level
    with pytest.raises(BasisError):
        enumerate_basis(4000, ("q", "r"), 4000)  # dim 8006001, over the cap


def test_oversized_basis_refused_while_built(deadline):
    # refused once a partial table passes the memory budget's dim cap,
    # without listing every candidate or holding them all in memory
    with deadline(2), pytest.raises(BasisError):
        enumerate_basis(10**8, ("q", "r"), 10**8)
    with deadline(2), pytest.raises(BasisError):
        enumerate_basis(10**6, ("q+", "q-", "r+", "r-", "p'", "p''"), 10**6,
                        ryd_max=2)


# (n_atoms, levels, n_max, ryd_max) of small bases; n_max reaches 4 so that
# the one-pair cap is exercised
_SWEEP = [case for case in product(
    range(2, 6), (("r",), ("q", "r"), ("q", "r", "p'", "p''"), ("q+", "q-", "r+", "r-")),
    range(1, 5), (None, 1, 2)) if case[2] <= case[0]]


def test_occupation_table_matches_recount():
    # the same states in the same order as a brute-force listing, and every
    # count read from the occupation table equals a plain recount
    for n_atoms, levels, n_max, ryd_max in _SWEEP:
        bases = [enumerate_basis(n_atoms, levels, n_max, mode=mode,
                                 ryd_max=ryd_max)
                 for mode in ("symmetric", "pair-resolved")]
        for b in bases:
            case = (b.mode, n_atoms, levels, n_max, ryd_max)
            assert listed_states(b) == expected_states(b, n_max, ryd_max), case
            assert b.ground_index() == 0, case
            ryd_diag = rydberg_number(b).dense().diagonal()
            number_diags = {lev: number_op(b, lev).dense().diagonal()
                            for lev in b.levels + ("g",)}
            for i, state in enumerate(listed_states(b)):
                occ, excitations, rydberg = recount(b, state)
                assert b.excitation_counts[i] == excitations, case
                assert b.rydberg_counts[i] == rydberg, case
                assert ryd_diag[i] == rydberg, case
                for lev, n in occ.items():
                    assert b.occupations(lev)[i] == n, (case, lev)
                    assert number_diags[lev][i] == n, (case, lev)
        sym, prb = bases
        emb = symmetric_embedding(sym, prb)
        np.testing.assert_allclose(emb.T @ emb, np.eye(sym.dim), atol=1e-12)


def test_index_lookup_dense():
    # state_index finds every state of a symmetric and a pair-resolved basis
    sym = enumerate_basis(5, ("q", "r"), 2)
    for i, state in enumerate(listed_states(sym)):
        assert sym.state_index(dict(zip(sym.levels, state))) == i
    assert sym.state_index({}) == sym.ground_index()
    prb = enumerate_basis(4, ("q", "r", "p'", "p''"), 3, mode="pair-resolved")
    for i, state in enumerate(listed_states(prb)):
        assert prb.state_index(state) == i


def _moves_by_dict(basis, changes):
    """_moves by a dict over the listed states."""
    index = {state: i for i, state in enumerate(listed_states(basis))}
    delta = np.zeros(len(basis.levels), dtype=int)
    for lev, d in changes:
        if lev != "g":
            delta[basis.levels.index(lev)] += d
    found = np.array([index.get(tuple(row), -1) for row in (basis.occ + delta).tolist()])
    cols = np.flatnonzero(found >= 0)
    return found[cols], cols


def test_state_keys_never_alias(monkeypatch):
    # a move or a lookup past a column's range finds no state: its key would
    # carry into the next column, onto a state of its own
    for n_atoms, levels, n_max, ryd_max in _SWEEP:
        b, ref = (enumerate_basis(n_atoms, levels, n_max, ryd_max=ryd_max)
                  for _ in range(2))
        singles = [lev for lev in b.levels if not hilbert.is_pair_mode(lev)]
        moves = [(frm, to) for frm, to in product(["g", *singles], repeat=2) if frm != to]
        with monkeypatch.context() as m:
            m.setattr(hilbert, "_moves", _moves_by_dict)
            want = [hilbert._collective_op(ref, frm, to) for frm, to in moves]
            want_channels = ref._dipole_channels
        for op, ref_op in zip((hilbert._collective_op(b, *move) for move in moves), want):
            _same_triples(op, ref_op)
        assert len(b._dipole_channels) == len(want_channels)
        for got, ref_channel in zip(b._dipole_channels, want_channels):
            assert all(np.array_equal(x, y) for x, y in zip(got, ref_channel))
        # the keys fit int64: each single level's range is at most 6 times the
        # side of a box of states inside the caps, and each pair mode's is 2
        assert np.prod(b.radix) <= 6**len(singles) * 2**(len(b.levels) - len(singles)) * b.dim
    sym = enumerate_basis(5, ("q", "r"), 2, ryd_max=1)
    prb = enumerate_basis(3, ("q", "r"), 2, mode="pair-resolved")
    for basis, spec in ((sym, {"r": 2}), (sym, {"q": 1, "r": -1}),
                        (prb, ("g", "x", "g")), (prb, ("g", "g")), (prb, ("g",) * 4)):
        with pytest.raises(KeyError):
            basis.state_index(spec)


def _find_all_rows(basis, codes):
    """hilbert._find as it read when it searched every row, the out-of-range
    ones with key -1."""
    place, sorted_keys, order = basis._lookup
    keys = np.where(((codes >= 0) & (codes < basis.radix)).all(axis=-1), codes @ place, -1)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
    return np.where(sorted_keys[pos] == keys, order[pos], -1)


def test_find_searches_only_in_range_rows_with_the_same_result():
    rng = np.random.default_rng(64)
    bases = [enumerate_basis(6, ("q", "r", "p'", "p''"), 4, ryd_max=2),
             enumerate_basis(4, ("q", "r"), 3, mode="pair-resolved")]
    for b in bases:
        radix = np.array(b.radix)
        # every state, and rows one past either end of a column's range
        for codes in (b.codes, rng.integers(-1, radix + 1, (5000, len(radix))),
                      rng.integers(0, radix, (3000, len(radix)))):
            got = hilbert._find(b, codes)
            assert got.dtype == _find_all_rows(b, codes).dtype
            np.testing.assert_array_equal(got, _find_all_rows(b, codes))
        np.testing.assert_array_equal(hilbert._find(b, b.codes), np.arange(b.dim))
        assert (hilbert._find(b, np.full((3, len(radix)), -1)) == -1).all()


def test_collective_op_elements():
    # amplitude 1 onto the first excited state for any N
    for n in (1, 2, 7, 40):
        b = enumerate_basis(n, ("q",), min(2, n))
        sig_up = collective_op(b, "g", "q").dense()
        i0, i1 = b.state_index({}), b.state_index({"q": 1})
        assert sig_up[i1, i0] == pytest.approx(1.0)
    # <q^2|Sigma up|q^1> for N=2 is sqrt(2*1/2) = 1
    b = enumerate_basis(2, ("q",), 2)
    sig_up = collective_op(b, "g", "q").dense()
    assert sig_up[b.state_index({"q": 2}), b.state_index({"q": 1})] == \
        pytest.approx(1.0)
    # general element sqrt((n+1)(N-n)/N)
    n_atoms = 9
    b = enumerate_basis(n_atoms, ("q",), 5)
    sig_up = collective_op(b, "g", "q").dense()
    for n in range(5):
        got = sig_up[b.state_index({"q": n + 1}), b.state_index({"q": n})]
        assert got == pytest.approx(
            np.sqrt((n + 1) * (n_atoms - n) / n_atoms)
        )


def test_collective_op_against_two_atom_tensor_product():
    # literal two-atom construction: Sigma_up = (|q><g| x I + I x |q><g|)/sqrt(2)
    # restricted to the symmetric states {|gg>, (|gq>+|qg>)/sqrt(2), |qq>}
    up = np.array([[0, 0], [1, 0]], dtype=complex)     # |q><g|
    eye = np.eye(2, dtype=complex)
    sig = (np.kron(up, eye) + np.kron(eye, up)) / np.sqrt(2)
    gg = np.array([1, 0, 0, 0], dtype=complex)
    sym = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    qq = np.array([0, 0, 0, 1], dtype=complex)
    b = enumerate_basis(2, ("q",), 2)
    mat = collective_op(b, "g", "q").dense()
    assert np.vdot(sym, sig @ gg) == pytest.approx(
        mat[b.state_index({"q": 1}), b.state_index({})]
    )
    assert np.vdot(qq, sig @ sym) == pytest.approx(
        mat[b.state_index({"q": 2}), b.state_index({"q": 1})]
    )
    assert np.vdot(qq, sig @ sym) == pytest.approx(1.0)


def test_collective_commutator_on_ground():
    b = enumerate_basis(6, ("q",), 2)
    lower = collective_op(b, "q", "g").dense()
    raise_ = collective_op(b, "g", "q").dense()
    comm = lower @ raise_ - raise_ @ lower
    ground = b.basis_vector({})
    np.testing.assert_allclose(comm @ ground, ground, atol=1e-12)


@pytest.mark.parametrize("mode", ["symmetric", "pair-resolved"])
def test_collective_op_is_built_once_per_basis(mode):
    """Each basis builds a transition's operator once and shares it; an equal
    but distinct basis builds its own, and both carry the triples of the
    uncached builder."""
    levels = ("q", "r", "p'", "p''")
    basis = enumerate_basis(3, levels, 2, mode=mode)
    op = collective_op(basis, "g", "r")
    assert collective_op(basis, "g", "r") is op
    assert collective_op(basis, "r", "g") is not op
    with pytest.raises(BasisError):
        collective_op(basis, "g", "r+")
    assert set(basis._collective_ops) == {("g", "r"), ("r", "g")}
    twin = enumerate_basis(3, levels, 2, mode=mode)
    assert twin == basis and twin is not basis
    own = collective_op(twin, "g", "r")
    assert own is not op and own.basis is twin and op.basis is basis
    for other in (own, hilbert._collective_op(basis, "g", "r")):
        assert np.array_equal(other.rows, op.rows)
        assert np.array_equal(other.cols, op.cols)
        assert other.vals.tobytes() == op.vals.tobytes()


def test_operators_are_read_only():
    # a shared operator cannot be changed in place by one of its users
    basis = enumerate_basis(3, ("q", "r", "p'", "p''"), 2)
    for op in (collective_op(basis, "g", "r"), drive_term(basis, "g", "r", 1.0),
               dipole_term(basis, 2.0), dephasing_term(basis, 0.1)):
        for arr in (op.rows, op.cols, op.vals):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


def test_collective_op_diagonal_case():
    # Sigma_mu_mu is the occupancy over sqrt(N) in both modes
    b = enumerate_basis(4, ("q",), 3)
    diag = collective_op(b, "q", "q").dense()
    for m in range(4):
        i = b.state_index({"q": m})
        assert diag[i, i] == pytest.approx(m / 2.0)
    bp = enumerate_basis(3, ("q",), 2, mode="pair-resolved")
    dp = collective_op(bp, "q", "q").dense()
    i = bp.state_index(("q", "q", "g"))
    assert dp[i, i] == pytest.approx(2 / np.sqrt(3))


def test_collective_op_pair_resolved_matches_sum():
    b = enumerate_basis(3, ("r",), 3, mode="pair-resolved")
    sig = collective_op(b, "g", "r").dense()
    # literal: |ggg> couples to each single-flip with 1/sqrt(3)
    i0 = b.state_index(("g", "g", "g"))
    for single in (("r", "g", "g"), ("g", "r", "g"), ("g", "g", "r")):
        assert sig[b.state_index(single), i0] == pytest.approx(1 / np.sqrt(3))


def test_drive_elements_and_hermiticity():
    b = enumerate_basis(4, ("r",), 2)
    h = drive_term(b, "g", "r", 1.0)
    assert hermiticity_defect(h) < 1e-12
    hd = h.dense()
    assert hd[b.state_index({"r": 1}), b.state_index({})] == pytest.approx(1.0)
    # N=1 single-atom Rabi coupling omega/2
    b1 = enumerate_basis(1, ("r",), 1)
    h1 = drive_term(b1, "g", "r", 1.0).dense()
    assert h1[1, 0] == pytest.approx(0.5)


def test_drive_detuning_and_phase():
    b = enumerate_basis(3, ("r",), 2)
    h = drive_term(b, "g", "r", 0.8, phase=0.7, detuning=2.5)
    assert hermiticity_defect(h) < 1e-12
    hd = h.dense()
    i0, i1, i2 = b.state_index({}), b.state_index({"r": 1}), b.state_index({"r": 2})
    assert hd[i1, i0] == pytest.approx(
        0.5 * 0.8 * np.sqrt(3) * np.exp(0.7j), rel=1e-12
    )
    assert hd[i1, i1] == pytest.approx(2.5)
    assert hd[i2, i2] == pytest.approx(5.0)


def test_drive_changes_occupations_by_one():
    b = enumerate_basis(5, ("q", "r"), 3)
    h = drive_term(b, "q", "r", 1.0)
    nq, nr = b.occupations("q"), b.occupations("r")
    for i, j in zip(h.rows, h.cols):
        if i == j:
            continue
        dq = nq[i] - nq[j]
        dr = nr[i] - nr[j]
        assert {dq, dr} == {-1, 1}


def test_dipole_two_atom_eigenstructure():
    # literal hopping for two atoms: |rr> couples to the symmetric pair
    # state with sqrt(2) kappa, eigenvalues split symmetrically about 0
    b = enumerate_basis(2, ("r", "p'", "p''"), 2, mode="pair-resolved")
    kap = np.array([[0.0, 3.0], [3.0, 0.0]])
    v = dipole_term(b, kap)
    assert hermiticity_defect(v) < 1e-12
    vd = v.dense()
    i_rr = b.state_index(("r", "r"))
    sub = [i_rr, b.state_index(("p'", "p''")), b.state_index(("p''", "p'"))]
    block = vd[np.ix_(sub, sub)]
    vals = np.sort(np.linalg.eigvalsh(block))
    np.testing.assert_allclose(
        vals, [-np.sqrt(2) * 3.0, 0.0, np.sqrt(2) * 3.0], atol=1e-12
    )


def test_dipole_annihilates_single_excitation():
    b = enumerate_basis(3, ("r", "p'", "p''"), 2, mode="pair-resolved")
    kap = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
    vd = dipole_term(b, kap).dense()
    psi = b.basis_vector(("r", "g", "g"))
    assert np.abs(vd @ psi).max() == 0.0


def test_dipole_three_atom_spectrum_vs_handbuilt():
    # doubly-excited manifold for N=3 vs an explicitly assembled block
    b = enumerate_basis(3, ("r", "p'", "p''"), 2, mode="pair-resolved")
    rng = np.random.default_rng(8)
    kap = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            kap[i, j] = kap[j, i] = rng.uniform(1, 5)
    vd = dipole_term(b, kap).dense()

    pairs = [(0, 1), (0, 2), (1, 2)]
    labels = []
    for i, j in pairs:
        for combo in ("rr", "pq", "qp"):
            s = ["g", "g", "g"]
            if combo == "rr":
                s[i], s[j] = "r", "r"
            elif combo == "pq":
                s[i], s[j] = "p'", "p''"
            else:
                s[i], s[j] = "p''", "p'"
            labels.append(tuple(s))
    dim = len(labels)
    hand = np.zeros((dim, dim))
    for a, (i, j) in enumerate(pairs):
        base = 3 * a
        hand[base, base + 1] = hand[base + 1, base] = kap[i, j]
        hand[base, base + 2] = hand[base + 2, base] = kap[i, j]
    idx = [b.state_index(s) for s in labels]
    block = vd[np.ix_(idx, idx)].real
    np.testing.assert_allclose(
        np.linalg.eigvalsh(block), np.linalg.eigvalsh(hand), atol=1e-12
    )


def test_dipole_symmetric_conventions():
    b = enumerate_basis(5, ("r", "p'", "p''"), 2)
    i_rr = b.state_index({"r": 2})
    i_p = b.state_index({pair_mode("r", "r"): 1})
    kbar = 4.0
    split = dipole_term(b, kbar, convention="split").dense()
    assert split[i_p, i_rr] == pytest.approx(kbar / 2)
    sub = np.ix_([i_rr, i_p], [i_rr, i_p])
    vals = np.linalg.eigvalsh(split[sub])
    assert vals[1] - vals[0] == pytest.approx(kbar)
    eq1 = dipole_term(b, kbar, convention="eq1").dense()
    assert eq1[i_p, i_rr] == pytest.approx(np.sqrt(2) * kbar)
    with pytest.raises(ValueError):
        dipole_term(b, kbar, convention="bogus")


def test_dipole_cross_manifold_same_calibration():
    b = enumerate_basis(4, ("r+", "r-", "p'", "p''"), 2)
    kbar = 6.0
    vd = dipole_term(b, kbar, convention="split").dense()
    i_pm = b.state_index({"r+": 1, "r-": 1})
    i_p = b.state_index({pair_mode("r+", "r-"): 1})
    assert vd[i_p, i_pm] == pytest.approx(kbar / 2)
    # channels do not leak into each other through a shared intermediate
    i_mm = b.state_index({"r-": 2})
    sub = np.ix_([i_pm, i_p, i_mm], [i_pm, i_p, i_mm])
    block = vd[sub]
    assert block[2, 0] == 0.0 and block[2, 1] == 0.0


def test_dipole_conserves_excitations():
    b = enumerate_basis(5, ("q", "r", "p'", "p''"), 3)
    v = dipole_term(b, 2.0)
    for i, j in zip(v.rows, v.cols):
        assert b.excitation_counts[i] == b.excitation_counts[j]


def test_blockade_gap_bound():
    # eigenstates overlapping doubly-excited r states sit at least
    # kappa_min/2 away from zero under either convention
    b = enumerate_basis(3, ("r", "p'", "p''"), 2, mode="pair-resolved")
    rng = np.random.default_rng(4)
    kap = np.zeros((3, 3))
    kmin = 2.0
    for i in range(3):
        for j in range(i + 1, 3):
            kap[i, j] = kap[j, i] = rng.uniform(kmin, 5 * kmin)
    vd = dipole_term(b, kap).dense()
    two_exc = [i for i in range(b.dim) if b.excitation_counts[i] == 2]
    states = listed_states(b)
    rr = [
        i for i in two_exc
        if sum(lev == "r" for lev in states[i]) == 2
    ]
    block = vd[np.ix_(two_exc, two_exc)]
    vals, vecs = np.linalg.eigh(block)
    rr_rows = [two_exc.index(i) for i in rr]
    for val, vec in zip(vals, vecs.T):
        if np.abs(vec[rr_rows]).max() > 1e-12:
            assert abs(val) >= kmin / 2

    bs = enumerate_basis(6, ("r", "p'", "p''"), 2)
    vals = np.linalg.eigvalsh(
        dipole_term(bs, kmin, convention="split").dense()
    )
    nonzero = vals[np.abs(vals) > 1e-12]
    assert (np.abs(nonzero) >= kmin / 2 - 1e-12).all()


def test_dephasing_term():
    b = enumerate_basis(4, ("q", "r", "p'", "p''"), 2)
    z = dephasing_term(b, 0.0)
    assert np.abs(z.dense()).max() == 0.0
    d = dephasing_term(b, 0.6).dense()
    assert d[b.state_index({"r": 1}), b.state_index({"r": 1})] == \
        pytest.approx(-0.3j)
    # doubly excited decays twice as fast; a transfer pair counts two quanta
    assert d[b.state_index({"r": 2}), b.state_index({"r": 2})] == \
        pytest.approx(-0.6j)
    i_p = b.state_index({pair_mode("r", "r"): 1})
    assert d[i_p, i_p] == pytest.approx(-0.6j)
    # storage levels do not decay
    assert d[b.state_index({"q": 1}), b.state_index({"q": 1})] == 0.0
    with pytest.raises(ValueError):
        dephasing_term(b, -0.1)


def test_number_and_rydberg_ops():
    b = enumerate_basis(4, ("q", "r"), 2)
    nq = number_op(b, "q").dense()
    assert nq[b.state_index({"q": 2}), b.state_index({"q": 2})] == 2
    nr = rydberg_number(b).dense()
    assert nr[b.state_index({"q": 1, "r": 1}),
              b.state_index({"q": 1, "r": 1})] == 1


@pytest.mark.parametrize("n_atoms", [2, 3, 4])
def test_symmetric_subspace_consistency(n_atoms):
    # projected pair-resolved drive and uniform dipole reproduce the
    # symmetric-mode matrices entry-wise
    levels = ("q", "r", "p'", "p''")
    n_max = min(n_atoms, 3)
    sym = enumerate_basis(n_atoms, levels, n_max, ryd_max=2)
    prb = enumerate_basis(n_atoms, levels, n_max, mode="pair-resolved",
                          ryd_max=2)
    emb = symmetric_embedding(sym, prb)
    # isometry on the symmetric subspace
    np.testing.assert_allclose(emb.T @ emb, np.eye(sym.dim), atol=1e-12)
    kappa = 3.3
    km = np.full((n_atoms, n_atoms), kappa) - kappa * np.eye(n_atoms)
    cases = [
        drive_term(sym, "g", "r", 0.9, phase=0.4).dense(),
        drive_term(sym, "q", "r", 1.1, detuning=0.2).dense(),
        dipole_term(sym, kappa, convention="eq1").dense(),
    ]
    prs = [
        drive_term(prb, "g", "r", 0.9, phase=0.4).dense(),
        drive_term(prb, "q", "r", 1.1, detuning=0.2).dense(),
        dipole_term(prb, km).dense(),
    ]
    for a_sym, a_pr in zip(cases, prs):
        np.testing.assert_allclose(emb.T @ a_pr @ emb, a_sym, atol=1e-10)


def _from_scipy(basis, m):
    """Operator holding the entries of m after scipy's COO -> CSR conversion,
    sum_duplicates, sort_indices and a sparse + of a zero matrix (which adds
    a complex zero to every entry and drops entries equal to zero)."""
    m = m.tocsr()
    m.sum_duplicates()
    m.sort_indices()
    m = m + sparse.csr_matrix(m.shape, dtype=complex)
    rows = np.repeat(np.arange(basis.dim), np.diff(m.indptr))
    return Operator(basis, rows, m.indices, m.data)


def _scipy_operator(basis, rows, cols, vals):
    return _from_scipy(basis, sparse.coo_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)),
        shape=(basis.dim, basis.dim),
    ))


def _scipy_drive_term(basis, frm, to, rabi, phase=0.0, detuning=0.0):
    # the drive_generator formula on a sparse collective operator
    sig = collective_op(basis, frm, to).matrix
    up = 0.5 * np.exp(1j * phase) * np.sqrt(basis.n_atoms) * sig
    shift = detuning * basis.occupations(to)
    return _from_scipy(basis, rabi * (up + up.conj().T) + sparse.diags(shift))


def _scipy_dephasing_term(basis, gamma_r):
    return _from_scipy(basis, (-0.5j * gamma_r) * rydberg_number(basis).matrix)


def _operators(basis, drive, dephasing):
    """Every kind of operator on a basis; drive and dephasing terms from the
    given functions."""
    singles = ["g"] + [lev for lev in basis.levels if not lev.startswith("P[")]
    out = [rydberg_number(basis), dephasing(basis, 0.37)]
    out += [number_op(basis, lev) for lev in singles]
    for frm, to in product(singles, repeat=2):     # frm == to included
        out.append(collective_op(basis, frm, to))
        out.append(drive(basis, frm, to, 0.8, phase=0.7, detuning=-2.5))
        out.append(drive(basis, frm, to, -1.3, phase=np.pi / 2))
    if basis.mode == "symmetric":
        out += [dipole_term(basis, 3.3, convention=c) for c in ("split", "eq1")]
    else:
        kappa = np.arange(basis.n_atoms**2, dtype=float).reshape(basis.n_atoms, -1)
        kappa = kappa + kappa.T - np.diag(np.diag(kappa + kappa.T))
        out.append(dipole_term(basis, kappa))
    return out


@pytest.mark.parametrize("mode, levels", [
    ("symmetric", ("q", "r", "p'", "p''")),
    ("symmetric", ("q+", "q-", "r+", "r-", "p'", "p''")),
    ("pair-resolved", ("q", "r", "p'", "p''")),
])
def test_operators_match_scipy_canonical_csr(monkeypatch, mode, levels):
    """Operators assembled as sorted triples equal, bit for bit, those that
    scipy's COO -> CSR conversion, sum_duplicates, sort_indices and sparse
    sums give (the pair-resolved collective_op(b, x, x) holds duplicates)."""
    got = _operators(enumerate_basis(3, levels, 2, mode=mode), drive_term,
                     dephasing_term)
    monkeypatch.setattr(hilbert, "_operator", _scipy_operator)
    # a basis of its own, whose collective operators scipy builds
    want = _operators(enumerate_basis(3, levels, 2, mode=mode), _scipy_drive_term,
                      _scipy_dephasing_term)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.vals.dtype == b.vals.dtype == complex
        assert a.vals.tobytes() == b.vals.tobytes()
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert a.dense().tobytes() == b.dense().tobytes()


@pytest.mark.parametrize("mode", ["symmetric", "pair-resolved"])
def test_hermiticity_defect_matches_dense(mode):
    """hermiticity_defect equals the largest |d - d^dagger| entry of the
    dense matrix exactly, Hermitian or not (the dephasing term is not)."""
    basis = enumerate_basis(3, ("q", "r", "p'", "p''"), 2, mode=mode)
    ops = _operators(basis, drive_term, dephasing_term)
    # one off-diagonal entry whose transpose is missing, beside a diagonal one
    ops.append(hilbert._operator(basis, [1, 2], [2, 2], [0.3 - 0.4j, 1.5j]))
    assert any(hermiticity_defect(op) > 0 for op in ops)
    for op in ops:
        d = op.dense()
        assert hermiticity_defect(op) == np.abs(d - d.conj().T).max()


def _same_triples(a, b):
    for x, y in ((a.rows, b.rows), (a.cols, b.cols), (a.vals, b.vals)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("gate", [False, True])
def test_dipole_pattern_is_built_once_per_basis(gate):
    """The symmetric dipole pattern (each channel's entries and factors) is
    kept per basis: every coupling on one basis gives the triples of a
    build on a fresh basis, and an equal but distinct basis builds its own
    pattern."""
    levels = ("q+", "q-", "r+", "r-", "p'", "p''") if gate else ("q", "r", "p'", "p''")
    basis = enumerate_basis(10, levels, 3, ryd_max=2)
    for convention, kbar in product(("split", "eq1"), (0.5, 3.7, 100.0, 1e6)):
        fresh = enumerate_basis(10, levels, 3, ryd_max=2)
        _same_triples(dipole_term(basis, kbar, convention),
                      dipole_term(fresh, kbar, convention))
    pattern = basis._dipole_channels
    assert len(pattern) == (3 if gate else 1)
    dipole_term(basis, 2.0)
    assert basis._dipole_channels is pattern
    twin = enumerate_basis(10, levels, 3, ryd_max=2)
    assert twin == basis and twin._dipole_channels is not pattern


def _collective_op_loop(basis, frm, to):
    """The pair-resolved transfer operator by a loop over states and atoms."""
    states = listed_states(basis)
    index = {state: i for i, state in enumerate(states)}
    rows, cols = [], []
    for j, state in enumerate(states):
        for i, lev in enumerate(state):
            if lev == frm:
                new = state[:i] + (to,) + state[i + 1:]
                if new in index:
                    rows.append(index[new])
                    cols.append(j)
    return hilbert._operator(basis, rows, cols,
                             np.full(len(rows), 1.0 / np.sqrt(basis.n_atoms)))


def _dipole_loop(basis, kappa):
    """The pair-resolved dipole hopping by a loop over states and atom pairs."""
    states = listed_states(basis)
    index = {state: i for i, state in enumerate(states)}
    rows, cols, vals = [], [], []
    for j, state in enumerate(states):
        excited = [a for a, lev in enumerate(state) if lev in hilbert.R_TYPE_LEVELS]
        for (a, b), pair in product(combinations(excited, 2),
                                    (hilbert.PAIR_LEVELS, hilbert.PAIR_LEVELS[::-1])):
            new = list(state)
            new[a], new[b] = pair
            i = index.get(tuple(new))
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(kappa[a, b])
    up = np.asarray(vals, dtype=complex)
    return hilbert._operator(basis, np.concatenate([rows, cols]),
                             np.concatenate([cols, rows]),
                             np.concatenate([up, up.conj()]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_resolved_operators_match_the_loops(n):
    # array-built operators carry the loops' triples bit for bit: every
    # transition among g and the oracle's levels, and a random coupling
    levels = ("q", "r", "p'", "p''")
    basis = enumerate_basis(n, levels, min(3, n), mode="pair-resolved", ryd_max=2)
    for frm, to in product(("g",) + levels, repeat=2):
        _same_triples(hilbert._collective_op(basis, frm, to),
                      _collective_op_loop(basis, frm, to))
    kappa = np.random.default_rng(n).normal(size=(n, n))
    kappa += kappa.T
    _same_triples(dipole_term(basis, kappa), _dipole_loop(basis, kappa))


def test_n_atoms_bound_is_enforced_by_the_basis():
    # beyond N_ATOMS_MAX the occupation products overflow: refused at once
    with pytest.raises(BasisError, match="n_atoms"):
        collective_op(enumerate_basis(10**20, ("r",), 1), "g", "r")
    with pytest.raises(BasisError, match="n_atoms"):
        enumerate_basis(2**62 + 1, ("r",), 3)
    op = collective_op(enumerate_basis(hilbert.N_ATOMS_MAX, ("r",), 3), "g", "r")
    assert np.isfinite(op.vals).all() and len(op.vals) == 3


def test_collective_elements_at_the_bounds_are_correctly_rounded():
    # N (n_max + 1) passes int64 here (2**50 x 20001): each element is
    # sqrt((N - n) (n + 1)) / sqrt(N) of the correctly rounded product
    n_atoms = hilbert.N_ATOMS_MAX
    op = collective_op(enumerate_basis(n_atoms, ("r",), 20000), "g", "r")
    want = [sqrt(float((n_atoms - n) * (n + 1))) / sqrt(n_atoms) for n in range(20000)]
    assert op.vals.tolist() == want
