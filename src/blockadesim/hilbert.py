"""Collective bases and Hamiltonian terms for a driven multi-level ensemble.

Levels per atom: the ground state "g", storage sublevels "q", "q+", "q-",
and the strongly interacting manifold "r", "r+", "r-", "p'", "p''".  Two
basis modes are supported, each a table of integer codes with one row per
state (found by a sorted search of the row's mixed-radix key):

* symmetric: permutation-symmetric states, a row the level occupations.
  Transition amplitudes carry the exact bosonized enhancement
  sqrt(n_from (n_to + 1)), so a drive of single-atom Rabi frequency omega
  couples the ground state to the singly-excited symmetric state with
  matrix element sqrt(N) omega / 2.
* pair-resolved: literal per-atom level assignments (small N only), used
  as the brute-force reference for the symmetric mode.

Pair excitation transfer (r, r) -> (p', p'') is the blockade mechanism:
doubly-excited states hybridize with the transfer-pair states and split.
In symmetric mode each channel of excited levels (A, B) gets its own
bosonic pair quasi-mode "P[A,B]" occupying two atoms and counting as two
excitations; requesting levels p'/p'' creates these modes.  Channel-labeled
modes keep distinct doubly-excited species from mixing resonantly through
a shared intermediate.  Two splitting conventions set the effective
coupling, differing by the documented factor SPLITTING_CONVENTION_RATIO:

* "split":  |r^2> <-> |P[r,r]> element kappa_bar/2, so the hybridized
  eigenstate pair is split by exactly kappa_bar.
* "eq1":    element sqrt(2) kappa_bar, the exact symmetric-subspace
  projection of the literal pair-resolved hopping with uniform couplings
  (eigenstates at +-sqrt(2) kappa_bar).

Cross channels such as r+ r- use the same calibrated element as the
same-level channel under either convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from math import comb, prod, sqrt

import numpy as np

GROUND = "g"
LEVEL_ORDER = ("q", "q+", "q-", "r", "r+", "r-", "p'", "p''")
RYDBERG_LEVELS = frozenset({"r", "r+", "r-", "p'", "p''"})
R_TYPE_LEVELS = ("r", "r+", "r-")
PAIR_LEVELS = ("p'", "p''")

# Ratio of the "eq1" to the "split" effective pair-coupling element.
SPLITTING_CONVENTION_RATIO = 2.0 * sqrt(2.0)


class BasisError(ValueError):
    """Misconfigured or oversized basis."""


def pair_mode(level_a: str, level_b: str) -> str:
    """Canonical token of the transfer-pair quasi-mode fed by (A, B)."""
    for lev in (level_a, level_b):
        if lev not in R_TYPE_LEVELS:
            raise BasisError(f"{lev!r} is not an interacting r-type level")
    a, b = sorted((level_a, level_b), key=R_TYPE_LEVELS.index)
    return f"P[{a},{b}]"


def is_pair_mode(level: str) -> bool:
    return level.startswith("P[")


def pair_channel(token: str) -> tuple[str, str]:
    """Inverse of pair_mode."""
    a, b = token[2:-1].split(",")
    return a, b


def _is_rydberg(level: str) -> bool:
    return level in RYDBERG_LEVELS or is_pair_mode(level)


def _weights(levels, counted=lambda lev: True) -> np.ndarray:
    """Quanta per occupation of each level passing ``counted`` (else 0): the
    atoms one quantum consumes, two for a pair mode."""
    return np.array([(1 + is_pair_mode(lev)) * counted(lev) for lev in levels], dtype=int)


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered collective basis: one row of integer codes per state.

    For mode "symmetric" a row holds the occupations of ``levels`` (ground
    occupancy is implicit: N minus the weighted sum).  For mode
    "pair-resolved" it holds each atom's position in ``atom_levels``.
    Column f takes ``radix[f]`` values, and a row read in that mixed radix
    is the state's key, which ``state_index`` and the operators look up.
    In both modes ``occ[i, a]`` holds the quanta of ``levels[a]`` in state i.
    """

    mode: str
    n_atoms: int
    levels: tuple[str, ...]        # non-ground levels, canonical order
    codes: np.ndarray = field(repr=False)
    radix: tuple[int, ...] = field(repr=False)
    occ: np.ndarray = field(repr=False)
    # the operators collective_op built on this basis, by (frm, to)
    _collective_ops: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other):
        """Same mode, atoms and levels, and the same states in the same order."""
        return (isinstance(other, Basis)
                and (self.mode, self.n_atoms, self.levels)
                == (other.mode, other.n_atoms, other.levels)
                and np.array_equal(self.codes, other.codes))

    @property
    def dim(self) -> int:
        return len(self.codes)

    @property
    def atom_levels(self) -> tuple[str, ...]:
        """Pair-resolved: the level each atom code stands for (the sorted
        level names, ground included)."""
        return tuple(sorted((GROUND, *self.levels)))

    @cached_property
    def excitation_counts(self) -> np.ndarray:
        return self.occ @ _weights(self.levels)

    @cached_property
    def rydberg_counts(self) -> np.ndarray:
        """Interacting-manifold quanta (pair modes count two)."""
        return self.occ @ _weights(self.levels, _is_rydberg)

    @cached_property
    def _lookup(self):
        """(place value of each column in a state key, the keys in ascending
        order, the state index of each).  Keys fit int64: the radix product
        is at most 9**12 pair-resolved; symmetric, occupations up to top/6 in
        each single level (at most 6) pass the caps and a pair mode (at most
        6) takes 2 values, so it is at most 6**6 2**6 dim (~2e13)."""
        place = np.array([prod(self.radix[f + 1:]) for f in range(len(self.radix))], int)
        keys = self.codes @ place
        order = np.argsort(keys)
        return place, keys[order], order

    @cached_property
    def _dipole_channels(self):
        """Symmetric: per pair channel (A, B) its (rows, cols, cross, A, B)
        of ``dipole_term``'s up entries, A = sqrt(na (na - 1)) (or
        sqrt(na nb) for a cross channel) and B = sqrt(n_pair + 1)."""
        channels = []
        for tok in (lev for lev in self.levels if is_pair_mode(lev)):
            la, lb = pair_channel(tok)
            r, c = _moves(self, [(la, -1), (lb, -1), (tok, 1)])
            na, nb = self.occupations(la)[c], self.occupations(lb)[c]
            amp = np.sqrt(na * (na - 1)) if la == lb else np.sqrt(na * nb)
            channels.append((r, c, la != lb, amp,
                             np.sqrt(self.occupations(tok)[c] + 1)))
        return channels

    def occupations(self, level: str) -> np.ndarray:
        """Occupation of ``level`` in every state."""
        if level == GROUND:
            return self.n_atoms - self.excitation_counts
        if level not in self.levels:
            return np.zeros(self.dim, dtype=int)
        return self.occ[:, self.levels.index(level)]

    def state_index(self, spec) -> int:
        """Index of a state given as {level: count} (symmetric) or a tuple
        of per-atom levels (pair-resolved)."""
        if self.mode == "symmetric":
            occ = dict(spec)
            unknown = set(occ) - set(self.levels) - {GROUND}
            if unknown:
                raise KeyError(f"levels {sorted(unknown)} not in basis")
            row = [occ.get(lev, 0) for lev in self.levels]
        else:
            names = self.atom_levels
            row = [names.index(lev) if lev in names else -1 for lev in spec]
        # the row's key, -1 (no state's) if it has a value out of its range
        key = 0 if len(row) == len(self.radix) else -1
        for value, size in zip(row, self.radix):
            key = key * size + value if key >= 0 and 0 <= value < size else -1
        _, sorted_keys, order = self._lookup
        pos = int(sorted_keys.searchsorted(key))
        if pos == len(order) or sorted_keys.item(pos) != key:
            raise KeyError(f"state {spec!r} not in basis")
        return order.item(pos)

    def ground_index(self) -> int:
        """States are ordered by excitation number: the ground state is first."""
        return 0

    def basis_vector(self, spec) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.state_index(spec)] = 1.0
        return psi


@dataclass(frozen=True)
class Operator:
    """Sparse operator over a basis (rad/us for Hamiltonian terms).

    Entry k is vals[k] at (rows[k], cols[k]); the entries are nonzero,
    duplicate-free, sorted by (row, col) and read-only, as ``_operator`` builds them.
    """

    basis: Basis
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
        out[self.rows, self.cols] = self.vals
        return out

    @cached_property
    def matrix(self):
        """The entries as a ``scipy.sparse.csr_matrix``, for callers outside
        the package; the package itself never builds it."""
        import scipy.sparse as sparse   # deferred: keeps scipy off the import path

        dim = self.basis.dim
        return sparse.csr_matrix((self.vals, (self.rows, self.cols)), shape=(dim, dim))


def _operator(basis, rows, cols, vals) -> Operator:
    """Operator with entries vals at (rows, cols): a run of duplicates sums
    as its first entry (in input order) plus the sum of the rest, a complex
    zero is added to each sum (so -0.0 reads 0.0) and sums equal to zero
    are dropped."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    # first entry of each run of equal (row, col)
    first = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1))
    vals = np.add.reduceat(np.asarray(vals, dtype=complex)[order], first) + 0
    keep = vals != 0
    rows, cols, vals = rows[first][keep], cols[first][keep], vals[keep]
    for arr in (rows, cols, vals):      # read-only: collective_op shares them
        arr.flags.writeable = False
    return Operator(basis, rows, cols, vals)


def hermiticity_defect(op: Operator) -> float:
    """Largest |H - H^dagger| entry."""
    d = _operator(op.basis, np.concatenate([op.rows, op.cols]),
                  np.concatenate([op.cols, op.rows]),
                  np.concatenate([op.vals, -op.vals.conj()]))
    return float(np.abs(d.vals).max(initial=0.0))


# pair-resolved mode enumerates every per-atom assignment
N_ORACLE = 12
# largest atom count of a run: occupations N - n stay exact in float64, where
# the collective elements sqrt(n_frm (n_to + 1)) are formed
N_ATOMS_MAX = 2**50
# candidate rows enumerate_basis holds at once (~2 MB per table column)
_CANDIDATES = 1 << 18
# bytes one run may hold; ``dynamics.evolve`` and ``geometry._sample`` count
MEMORY_BUDGET = 2e9


def enumerate_basis(
    n_atoms: int,
    levels,
    n_max: int,
    mode: str = "symmetric",
    ryd_max: int | None = None,
) -> Basis:
    """Enumerate all states with at most n_max excitations.

    levels: the non-ground levels to include ("g" entries are ignored).
    Requesting p'/p'' in symmetric mode creates one transfer-pair
    quasi-mode per channel of the r-type levels present; at most one pair
    is occupied, holding two atoms and two excitations.  ryd_max, when
    set, additionally caps the interacting-manifold quanta; ryd_max=1
    realizes a perfectly blockaded register.  Pair-resolved mode keeps
    p'/p'' as literal atom levels and is limited to n_atoms <= N_ORACLE.

    States are built one choice at a time (a level's quanta, or an atom's
    level), dropping every partial state that already breaks a cap, and
    are ordered by excitation number, then state.  A basis is refused
    (BasisError), while it is built, once its states would not fit
    MEMORY_BUDGET at 256 B per state and 32 B per table column (one per
    choice and per level), an allowance for the table, its candidate blocks
    and its sort.  What a run on it holds, ``evolve`` estimates.
    """
    req = set(levels) - {GROUND}
    singles = tuple(lev for lev in LEVEL_ORDER if lev in req)
    unknown = req - set(singles)
    if unknown:
        raise BasisError(f"unknown levels {sorted(unknown)}")
    if sum(lev in singles for lev in PAIR_LEVELS) == 1:
        raise BasisError("pair levels p' and p'' must be included together")
    if n_atoms > N_ATOMS_MAX:
        raise BasisError(f"n_atoms={n_atoms} exceeds {N_ATOMS_MAX}")
    if n_max > n_atoms:
        raise BasisError(f"n_max={n_max} exceeds n_atoms={n_atoms}")
    if n_max < 0:
        raise BasisError("n_max must be non-negative")

    if mode == "symmetric":
        levs = tuple(lev for lev in singles if lev not in PAIR_LEVELS)
        if len(levs) < len(singles):
            r_present = [lev for lev in levs if lev in R_TYPE_LEVELS]
            if not r_present:
                raise BasisError("pair levels require an r-type level")
            levs += tuple(pair_mode(a, b) for i, a in enumerate(r_present)
                          for b in r_present[i:])
        n_fix = len(levs)
    elif mode == "pair-resolved":
        if n_atoms > N_ORACLE:
            raise BasisError(f"pair-resolved mode supports n_atoms <= {N_ORACLE}, "
                             f"got {n_atoms}")
        levs, n_fix = singles, n_atoms
    else:
        raise BasisError(f"unknown basis mode {mode!r}")

    # one row per partial state: the choices made so far, then its
    # occupations; a row that breaks a cap is dropped at once
    weights = _weights(levs)
    pairs = np.array([is_pair_mode(lev) for lev in levs], dtype=int)
    caps = np.column_stack([weights, pairs, _weights(levs, _is_rydberg)])
    limits = [n_max, 1, n_max if ryd_max is None else ryd_max]
    width = n_fix + len(levs)
    dim_cap = int(MEMORY_BUDGET // (256 + 32 * width))
    if mode == "symmetric":
        # a choice per level: its number of quanta, up to the most that pass
        # the caps alone; each way to put at most n_max quanta in the free
        # levels (weight 1, n_max quanta each) is a state of its own
        tops = [min(lim // c for c, lim in zip(row, limits) if c) for row in caps.tolist()]
        free = sum(top == n_max and w == 1 for top, w in zip(tops, weights.tolist()))
        if comb(n_max + free, free) > dim_cap:
            raise BasisError(f"basis dimension exceeds the budget's cap {dim_cap}")
        unit = np.eye(len(levs), dtype=int)
        choices = [np.outer(np.arange(top + 1), unit[a]) for a, top in enumerate(tops)]
    else:
        # a choice per atom: its level, listed in the order states sort by
        names = sorted((GROUND,) + levs)
        choices = [np.array([[lev == name for lev in levs] for name in names], int)] * n_atoms
    # each choice's values in turn: value v of choice f adds row v of
    # choices[f] to the occupations
    table = np.zeros((1, width), dtype=int)
    for f, counts in enumerate(choices):
        step = np.zeros((len(counts), width), dtype=int)
        step[:, f] = np.arange(len(counts))
        step[:, n_fix:] = counts
        # extend a block of rows at a time: at most _CANDIDATES rows at once
        block = max(1, _CANDIDATES // len(counts))
        kept = []
        for lo in range(0, len(table), block):
            rows = (table[lo:lo + block, None, :] + step).reshape(-1, width)
            kept.append(rows[(rows[:, n_fix:] @ caps <= limits).all(axis=1)])
            # every kept partial state completes to at least one state
            if sum(map(len, kept)) > dim_cap:
                raise BasisError(f"basis dimension exceeds the budget's cap {dim_cap}")
        table = np.concatenate(kept)
    picks, occ = table[:, :n_fix], table[:, n_fix:]
    order = np.lexsort([*picks[:, ::-1].T, occ @ weights])
    picks = picks[order]
    # a symmetric state's choices are its occupations
    occ = picks if mode == "symmetric" else occ[order]
    picks.flags.writeable = occ.flags.writeable = False
    return Basis(mode=mode, n_atoms=n_atoms, levels=levs, codes=picks,
                 radix=tuple(map(len, choices)), occ=occ)


def _moves(basis, changes):
    """(rows, cols): changing the occupations of symmetric state cols by
    ``changes`` ((level, delta) pairs, ground implicit) gives state rows."""
    delta = np.zeros(len(basis.levels), dtype=int)
    for lev, d in changes:
        if lev != GROUND:
            delta[basis.levels.index(lev)] += d
    found = _find(basis, basis.codes + delta)
    cols = np.flatnonzero(found >= 0)
    return found[cols], cols


def _find(basis, codes) -> np.ndarray:
    """Index of the state with each row of codes, -1 where none has it; a row
    with a value out of its column's range (its key would carry over) is not searched."""
    place, sorted_keys, order = basis._lookup
    ok = ((codes >= 0) & (codes < basis.radix)).all(axis=-1)
    keys, found = (codes @ place)[ok], np.full(ok.shape, -1, order.dtype)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
    found[ok] = np.where(sorted_keys[pos] == keys, order[pos], -1)
    return found


def _check_levels(basis, *levels):
    for lev in levels:
        if lev != GROUND and lev not in basis.levels:
            raise BasisError(f"level {lev!r} not in basis")


def collective_op(basis: Basis, frm: str, to: str) -> Operator:
    """Collective transfer operator sum_i |to_i><frm_i| / sqrt(N).

    In the symmetric basis the matrix element between occupation states is
    sqrt(n_frm (n_to + 1) / N); in pair-resolved mode the literal atom sum
    is built, once per basis: later calls return the same operator.
    """
    ops = basis._collective_ops
    if (frm, to) not in ops:
        ops[frm, to] = _collective_op(basis, frm, to)
    return ops[frm, to]


def _collective_op(basis, frm, to):
    _check_levels(basis, frm, to)
    rootn = sqrt(basis.n_atoms)
    if basis.mode == "symmetric":
        if is_pair_mode(frm) or is_pair_mode(to):
            raise BasisError("pair quasi-modes are not single-atom levels")
        n_frm, n_to = basis.occupations(frm), basis.occupations(to)
        if frm == to:
            rows = cols = np.flatnonzero(n_frm)
            vals = n_frm[cols] / rootn
        else:
            rows, cols = _moves(basis, [(frm, -1), (to, 1)])
            vals = np.sqrt(n_frm[cols] * (n_to[cols] + 1.0)) / rootn
        return _operator(basis, rows, cols, vals)
    # each atom in frm moved to to, one at a time
    names = basis.atom_levels
    cols, atom = np.nonzero(basis.codes == names.index(frm))
    moved = basis.codes[cols]
    moved[np.arange(len(cols)), atom] = names.index(to)
    rows = _find(basis, moved)
    cols, rows = cols[rows >= 0], rows[rows >= 0]
    return _operator(basis, rows, cols, np.full(len(rows), 1.0 / rootn))


def _diagonal(basis, diag) -> Operator:
    idx = np.arange(basis.dim)
    return _operator(basis, idx, idx, diag)


def number_op(basis: Basis, level: str) -> Operator:
    """Diagonal occupancy of one level."""
    _check_levels(basis, level)
    return _diagonal(basis, basis.occupations(level))


def drive_generator(op: Operator, phase=0.0) -> np.ndarray:
    """up = (1/2) e^{i phase} sqrt(N) Sigma on the entries of ``op``, the
    collective operator Sigma(to<-frm) of ``collective_op``.

    A drive of single-atom Rabi frequency rabi and detuning delta is
    H = rabi (up + up^dagger) + delta n_to, so <r^1|H|g> = sqrt(N) rabi / 2
    at zero phase, and a single atom reduces to the usual rabi/2 coupling.
    """
    return 0.5 * np.exp(1j * phase) * sqrt(op.basis.n_atoms) * op.vals


def drive_term(
    basis: Basis,
    frm: str,
    to: str,
    rabi: float,
    phase: float = 0.0,
    detuning: float = 0.0,
) -> Operator:
    """Classical drive on one transition; see ``drive_generator``."""
    op = collective_op(basis, frm, to)
    up = rabi * drive_generator(op, phase)
    diag = np.arange(basis.dim)
    # detuning first: a duplicate run sums as shift + (up + up^dagger)
    return _operator(basis, np.concatenate([diag, op.rows, op.cols]),
                     np.concatenate([diag, op.cols, op.rows]),
                     np.concatenate([detuning * basis.occupations(to), up, up.conj()]))


def dipole_term(basis: Basis, coupling, convention: str = "split") -> Operator:
    """Resonant pair-excitation transfer (r, r) <-> (p', p'').

    Pair-resolved mode takes the (N, N) coupling array kappa_ij in rad/us
    (e.g. from ``geometry.coupling_matrix``) and builds the literal hopping
    sum_{i>j} kappa_ij |r_i r_j>(<p'_i p''_j| + <p'_j p''_i|) + h.c.,
    extended to all r-type levels.  Singly excited states are untouched and
    total excitation number is conserved.

    Symmetric mode takes a scalar effective coupling kappa_bar and couples
    each doubly-excited channel (A, B) to its own quasi-mode P[A,B].  The
    |r-type^2| <-> pair element is kappa_bar/2 under convention "split"
    (hybridized eigenstates split by exactly kappa_bar) or
    sqrt(2) kappa_bar under "eq1" (exact projection of the literal uniform
    hopping); cross channels use the same calibrated element.
    """
    if basis.mode == "pair-resolved":
        kappa = np.asarray(coupling, dtype=float)
        if kappa.shape != (basis.n_atoms, basis.n_atoms):
            raise BasisError(
                f"coupling matrix shape {kappa.shape} does not match N={basis.n_atoms}"
            )
        _check_levels(basis, *PAIR_LEVELS)
        names, codes = basis.atom_levels, basis.codes
        excited = np.isin(codes, [names.index(lev) for lev in R_TYPE_LEVELS
                                  if lev in names])
        # atoms a < b, both r-type, become (p', p'') or (p'', p'): each move
        # made for every state at once
        p1, p2 = names.index(PAIR_LEVELS[0]), names.index(PAIR_LEVELS[1])
        a, b, pa, pb = np.array(
            [(i, j, x, y) for (i, j), (x, y) in product(
                combinations(range(basis.n_atoms), 2), ((p1, p2), (p2, p1)))],
            dtype=np.intp).reshape(-1, 4).T
        cols, k = np.nonzero(excited[:, a] & excited[:, b])
        a, b = a[k], b[k]
        moved, hop = codes[cols], np.arange(len(cols))
        moved[hop, a], moved[hop, b] = pa[k], pb[k]
        rows = _find(basis, moved)
        found = rows >= 0
        rows, cols, vals = rows[found], cols[found], kappa[a, b][found]
    else:
        if convention not in ("split", "eq1"):
            raise ValueError(f"unknown splitting convention {convention!r}")
        kbar = float(coupling)
        s = kbar if convention == "eq1" else kbar / SPLITTING_CONVENTION_RATIO
        if not basis._dipole_channels:
            raise BasisError("basis has no transfer-pair quasi-modes")
        # cross channels use the same calibrated element
        rows, cols, vals = map(np.concatenate, zip(*(
            (r, c, ((s * sqrt(2.0) if cross else s) * a) * b)
            for r, c, cross, a, b in basis._dipole_channels)))
    up = vals.astype(complex)     # up + up^dagger
    return _operator(basis, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                     np.concatenate([up, up.conj()]))


def rydberg_number(basis: Basis) -> Operator:
    """Total occupancy of the interacting manifold (pair modes count two)."""
    return _diagonal(basis, basis.rydberg_counts)


def dephasing_term(basis: Basis, gamma_r: float) -> Operator:
    """Anti-Hermitian decay -i (gamma_r/2) * (interacting-manifold occupancy).

    Folding this into the effective Hamiltonian makes the squared norm of a
    state with n excited-manifold quanta decay as exp(-n gamma_r t); the
    accumulated norm loss is the decoherence-error proxy.
    """
    if gamma_r < 0:
        raise ValueError(f"gamma_r must be >= 0, got {gamma_r}")
    return _diagonal(basis, (-0.5j * gamma_r) * basis.rydberg_counts)


def symmetric_embedding(sym_basis: Basis, pr_basis: Basis) -> np.ndarray:
    """Isometry from the symmetric basis into the pair-resolved basis.

    Column k is the normalized symmetrization of all atom assignments with
    the occupations of symmetric state k; the same-level pair quasi-mode
    P[r,r] maps onto one p' atom plus one p'' atom.  E^dagger A_pr E
    reproduces the symmetric-mode matrix of any permutation-invariant
    pair-resolved operator A_pr.  Cross-channel pair modes have no literal
    counterpart and are rejected.
    """
    if sym_basis.mode != "symmetric" or pr_basis.mode != "pair-resolved":
        raise BasisError("expected (symmetric, pair-resolved) bases")
    if sym_basis.n_atoms != pr_basis.n_atoms:
        raise BasisError("atom numbers differ")

    for a, lev in enumerate(sym_basis.levels):
        cross = is_pair_mode(lev) and len(set(pair_channel(lev))) == 2
        if cross and sym_basis.occ[:, a].any():
            raise BasisError("cross-channel pair modes have no literal counterpart")
    # per-atom level counts of each symmetric level (P[r,r] holds one p' and
    # one p'' atom), and back: an assignment's single-level and p' counts are
    # a state's occupations if they give its counts back
    parts = [PAIR_LEVELS if is_pair_mode(lev) else (lev,) for lev in sym_basis.levels]
    pr_levels = pr_basis.levels
    to_pr = np.array([[lev in part for lev in pr_levels] for part in parts],
                     dtype=int).reshape(len(parts), len(pr_levels))
    from_pr = np.array([[lev == part[0] for part in parts] for lev in pr_levels],
                       dtype=int).reshape(len(pr_levels), len(parts))
    occ = pr_basis.occ @ from_pr
    match = np.where((occ @ to_pr == pr_basis.occ).all(axis=1), _find(sym_basis, occ), -1)
    rows = np.flatnonzero(match >= 0)
    cols = match[rows]
    # each column is spread evenly over the assignments it matches
    emb = np.zeros((pr_basis.dim, sym_basis.dim))
    emb[rows, cols] = 1.0 / np.sqrt(np.bincount(cols, minlength=sym_basis.dim)[cols])
    return emb
