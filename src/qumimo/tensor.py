"""Shared qubit constants, the conjugate transpose and the Schur-Weyl basis.

Conventions used throughout the package:

* Operators are dense ``float64`` numpy arrays: every map of the
  pipeline, the Schur-Weyl frame and every SDP's data are real, and the
  SDP solver refuses complex data.
* A multi-qubit operator lives on the tensor product of its qubits with
  qubit 1 as the *most significant* factor, i.e. the basis index of
  ``|a_1 ... a_n>`` is ``sum_i a_i * 2**(n-i)``.  This matches the order
  produced by chaining ``np.kron(A_1, np.kron(A_2, ...))``.
* No mode bookkeeping: each module traces out or reorders the legs of
  its own fixed layout with ``reshape`` and ``trace``.  The labeled mode
  space and its generic partial trace are a test-side reference
  (``tests/reference_ops.py``).
"""

from __future__ import annotations

import functools

import numpy as np

HERMITIAN_RTOL = 1e-12
PSD_SUPPORT_TOL = 1e-10

I2 = np.eye(2)

# Swap of two qubits and the unnormalized maximally entangled projector
# |Phi><Phi| with |Phi> = |00> + |11> = vec(I_2) (so <Phi|Phi> = 2).
SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)
PHI_UNNORM = np.outer(I2.ravel(), I2.ravel())


def read_only(*arrays):
    """The arrays (one alone, else their tuple), made read-only for caching."""
    for x in arrays:
        x.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (of each matrix of a stack)."""
    return x.conj().swapaxes(-1, -2)


@functools.cache
def schur_weyl_basis(n: int) -> tuple[np.ndarray, tuple]:
    """The Schur-Weyl basis of n qubits by sequential Clebsch-Gordan
    coupling (Bacon, Chuang and Harrow, PRL 97, 170502 (2006)), in closed
    form: no eigensolver, so reruns give the same bytes.

    Returns ``(v, blocks)``: ``v`` is orthogonal and read-only, its columns ordered by
    ``blocks = ((2j, paths), ...)`` (highest spin first), then by
    Yamanouchi path (the spins ``2 j_1, ..., 2 j_n`` of the first 1, ...,
    n qubits), then ``m = j, ..., -j`` (Condon-Shortley phases, ``|0>``
    spin up).  So ``v^T U^{(x)n} v = (+)_j I_{m_j} (x) D^j(U)`` for U in
    SU(2), and an operator commuting with every ``U^{(x)n}`` reads
    ``(+)_j X_j (x) I_{2j+1}``.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    # Path -> rows |path, m>, m = j .. -j, each a vector on the first k qubits.
    states = {(1,): np.eye(2)}
    for k in range(1, n):
        grown = {}
        for path, rows in states.items():
            tj = path[-1]
            for tj_new in (tj + 1, tj - 1):
                if tj_new < 0:
                    continue
                out = np.zeros((tj_new + 1, 2 ** (k + 1)))
                for i, tm in enumerate(range(tj_new, -tj_new - 1, -2)):
                    # <j', m -+ 1/2; 1/2, +-1/2 | j, m> for j = j' +- 1/2.
                    up = np.sqrt((tj + tm + 1) / (2 * tj + 2))
                    down = np.sqrt((tj - tm + 1) / (2 * tj + 2))
                    if tj_new < tj:
                        up, down = -down, up
                    if tm - 1 >= -tj:
                        out[i, 0::2] += up * rows[(tj - tm + 1) // 2]
                    if tm + 1 <= tj:
                        out[i, 1::2] += down * rows[(tj - tm - 1) // 2]
                grown[path + (tj_new,)] = out
        states = grown
    blocks = [(tj, tuple(sorted(p for p in states if p[-1] == tj)))
              for tj in sorted({p[-1] for p in states}, reverse=True)]
    return read_only(np.vstack([states[p] for _, paths in blocks for p in paths]).T), tuple(blocks)
