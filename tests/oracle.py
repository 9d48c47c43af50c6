"""Dense statevector reference implementations for small systems.

Everything here works with explicit ``2^n x 2^n`` matrices built from the
1D Jordan-Wigner representation ``gamma^1_x = Z..Z X I..``,
``gamma^2_x = Z..Z Y I..`` (site 0 is the leftmost tensor factor).  The
routines are deliberately direct -- operator products, matrix exponentials,
explicit Kraus sums -- so they can pin down sign and ordering conventions of
the fast covariance-matrix pipeline in tests without sharing any code with
it.  Intended for up to ~6 modes.  :func:`gf2_inverse`, a generic Gaussian
elimination over GF(2), certifies the encoder-matrix inverses the package
builds by structure.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
from scipy.linalg import expm, schur

_PAULI: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

DEFAULT_MODE_LIMIT = 4
HARD_MODE_LIMIT = 8


def _check_mode_count(n_modes: int, max_modes: int) -> None:
    """Cost guard: dense work above a handful of modes is almost always a bug."""
    limit = min(max_modes, HARD_MODE_LIMIT)
    if n_modes > limit:
        raise ValueError(
            f"dense reference limited to {limit} modes (requested {n_modes}); "
            f"raise max_modes (hard cap {HARD_MODE_LIMIT}) for slow tests"
        )


def gf2_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a binary matrix over GF(2) by Gaussian elimination."""
    n = mat.shape[0]
    a = (mat % 2).astype(np.uint8)
    inv = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot_rows = np.nonzero(a[col:, col])[0]
        if pivot_rows.size == 0:
            raise ValueError("matrix is singular over GF(2)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        rows = np.nonzero(a[:, col])[0]
        rows = rows[rows != col]
        a[rows] ^= a[col]
        inv[rows] ^= inv[col]
    return inv


def pauli(op: str) -> np.ndarray:
    """The 2x2 matrix of a single-qubit Pauli operator (or identity)."""
    try:
        return _PAULI[op].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {op!r}") from None


def pauli_string(n_qubits: int, factors: Dict[int, str]) -> np.ndarray:
    """Tensor product with the given single-qubit factors, identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n_qubits):
        out = np.kron(out, _PAULI[factors.get(q, "I")])
    return out


def dense_majorana(n_modes: int, m: int) -> np.ndarray:
    """Majorana operator ``m`` (flavor ``m % 2 + 1`` at site ``m // 2``)."""
    if not 0 <= m < 2 * n_modes:
        raise IndexError(f"Majorana index {m} outside [0, {2 * n_modes})")
    site, flavor = divmod(m, 2)
    factors = {q: "Z" for q in range(site)}
    factors[site] = "X" if flavor == 0 else "Y"
    return pauli_string(n_modes, factors)


def dense_majorana_set(n_modes: int, max_modes: int = DEFAULT_MODE_LIMIT) -> List[np.ndarray]:
    """All 2n Majorana operators, indexed as ``2 * site + flavor - 1``."""
    _check_mode_count(n_modes, max_modes)
    return [dense_majorana(n_modes, m) for m in range(2 * n_modes)]


def dense_quadratic_observable(coefficients: np.ndarray, offset: float = 0.0,
                               max_modes: int = DEFAULT_MODE_LIMIT) -> np.ndarray:
    """Dense form of ``offset + sum_ab O_ab Gamma_ab``.

    Since ``Gamma_ab = i <gamma_a gamma_b>`` for a != b, the operator is
    ``offset * I + i * sum_{a != b} O_ab gamma_a gamma_b``.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    n_modes = coeffs.shape[0] // 2
    gammas = dense_majorana_set(n_modes, max_modes)
    out = offset * np.eye(2**n_modes, dtype=complex)
    for a in range(2 * n_modes):
        for b in range(2 * n_modes):
            if a != b and coeffs[a, b] != 0.0:
                out += 1j * coeffs[a, b] * (gammas[a] @ gammas[b])
    return out


def dense_gaussian_density_matrix(gamma: np.ndarray,
                                  max_modes: int = DEFAULT_MODE_LIMIT) -> np.ndarray:
    """Density matrix of the Gaussian state with covariance ``gamma``.

    A real Schur decomposition rotates the Majoranas into canonically paired
    modes ``mu_i``; the state is then the commuting product
    ``prod_j (I + i t_j mu_{i_j} mu_{i_j'}) / 2`` over the 2x2 blocks
    ``[[0, t], [-t, 0]]`` of the rotated covariance.
    """
    g = np.asarray(gamma, dtype=float)
    n_maj = g.shape[0]
    if g.shape != (n_maj, n_maj) or n_maj % 2:
        raise ValueError(f"covariance must be square with even size, got {g.shape}")
    if not np.allclose(g, -g.T, atol=1e-10):
        raise ValueError("covariance matrix must be antisymmetric")
    t_mat, q_mat = schur(g, output="real")
    gammas = dense_majorana_set(n_maj // 2, max_modes)
    rotated = [sum(q_mat[a, c] * gammas[a] for a in range(n_maj)) for c in range(n_maj)]
    pairs = _antisymmetric_schur_pairs(t_mat)
    dim = 2 ** (n_maj // 2)
    rho = np.eye(dim, dtype=complex)
    for i, j, t in pairs:
        rho = rho @ (np.eye(dim) + 1j * t * (rotated[i] @ rotated[j]))
    return rho / dim


def _antisymmetric_schur_pairs(t_mat: np.ndarray) -> List[tuple]:
    """(i, j, t) for each canonical mode pair of a block-diagonal Schur form."""
    n = t_mat.shape[0]
    pairs = []
    singletons = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t_mat[i, i + 1]) > 1e-12:
            pairs.append((i, i + 1, float(t_mat[i, i + 1])))
            i += 2
        else:
            singletons.append(i)
            i += 1
    for j in range(0, len(singletons), 2):
        pairs.append((singletons[j], singletons[j + 1], 0.0))
    return pairs


def dense_to_covariance(rho: np.ndarray, max_modes: int = DEFAULT_MODE_LIMIT) -> np.ndarray:
    """Covariance matrix ``Gamma_ab = (i/2) tr([gamma_a, gamma_b] rho)``.

    Inverse of :func:`dense_gaussian_density_matrix` on Gaussian states.  The
    literal commutator form is kept on purpose: it pins the sign conventions
    independently of the fast covariance pipeline.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n_modes = int(round(np.log2(dim)))
    if rho.shape != (dim, dim) or 2**n_modes != dim:
        raise ValueError(f"density matrix must be 2^n x 2^n, got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix must have unit trace")
    gammas = dense_majorana_set(n_modes, max_modes)
    n_maj = 2 * n_modes
    out = np.zeros((n_maj, n_maj))
    for a in range(n_maj):
        for b in range(a + 1, n_maj):
            comm = gammas[a] @ gammas[b] - gammas[b] @ gammas[a]
            val = 0.5j * np.trace(comm @ rho)
            if abs(val.imag) > 1e-9:
                raise ValueError(f"covariance entry ({a}, {b}) = {val} is not real")
            out[a, b] = val.real
            out[b, a] = -val.real
    return out


def dense_pauli_channel(mat: np.ndarray, n_qubits: int, p: float,
                        alphas: Sequence[float]) -> np.ndarray:
    """Apply the single-qubit Pauli channel to every qubit of ``mat``.

    Per qubit the action is ``M -> (1 - 3p/4) M + (3p/4) sum_s alpha_s s M s``,
    i.e. the Pauli transfer factors are ``eta_s = 1 - (3p/2)(1 - alpha_s)``.
    The channel is self-adjoint, so the same routine serves states and
    Heisenberg-picture observables.
    """
    ax, ay, az = alphas
    out = np.asarray(mat, dtype=complex).copy()
    q_mix = 0.75 * p
    for q in range(n_qubits):
        sx = pauli_string(n_qubits, {q: "X"})
        sy = pauli_string(n_qubits, {q: "Y"})
        sz = pauli_string(n_qubits, {q: "Z"})
        out = (1.0 - q_mix) * out + q_mix * (
            ax * (sx @ out @ sx) + ay * (sy @ out @ sy) + az * (sz @ out @ sz)
        )
    return out


def dense_free_unitary(h_coeffs: np.ndarray, max_modes: int = DEFAULT_MODE_LIMIT) -> np.ndarray:
    """Unitary ``exp(-i H)`` for ``H = (i/4) sum_ab h_ab gamma_a gamma_b``."""
    h = np.asarray(h_coeffs, dtype=float)
    if not np.allclose(h, -h.T, atol=1e-10):
        raise ValueError("quadratic generator must be antisymmetric")
    n_modes = h.shape[0] // 2
    gammas = dense_majorana_set(n_modes, max_modes)
    ham = np.zeros((2**n_modes, 2**n_modes), dtype=complex)
    for a in range(2 * n_modes):
        for b in range(2 * n_modes):
            if h[a, b] != 0.0:
                ham += 0.25j * h[a, b] * (gammas[a] @ gammas[b])
    return expm(-1j * ham)


def dense_expectation(rho: np.ndarray, op: np.ndarray) -> float:
    """Real part of ``tr(rho op)`` (imaginary part must be numerical noise)."""
    val = complex(np.trace(rho @ op))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation value {val} is not real")
    return val.real


def dense_noisy_expectation(rho: np.ndarray, op: np.ndarray, p: float,
                            alphas: Sequence[float]) -> float:
    """Expectation after the measurement-time Pauli channel on every qubit."""
    n_qubits = int(round(np.log2(rho.shape[0])))
    return dense_expectation(dense_pauli_channel(rho, n_qubits, p, alphas), op)


def dense_layer(rho: np.ndarray, unitary: np.ndarray, p: float,
                alphas: Sequence[float]) -> np.ndarray:
    """One circuit layer in the Schroedinger picture: unitary, then noise."""
    n_qubits = int(round(np.log2(rho.shape[0])))
    evolved = unitary @ rho @ unitary.conj().T
    return dense_pauli_channel(evolved, n_qubits, p, alphas)
