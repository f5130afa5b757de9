"""Matrix elements of exp(-it pi~(f)) for symmetric group algebra elements.

The package computes Young-basis matrix elements of time evolution
under k-local Hermitian elements of C[S_n] acting on n qudits by
permuting tensor factors. Three routes are implemented and cross
checked: an exact dense oracle, a segmented truncated-Taylor LCU over
permutation (SWAP-compiled) unitaries, and the same LCU over the Pauli
expansion on qubits. A classical S_n Fourier baseline (naive and fast,
with exact operation counters) quantifies the factorial-versus
polynomial cost contrast. Import from the submodules, e.g.
`from snsim.lcu import matrix_element`; the package root re-exports
nothing.
"""

__version__ = "0.1.0"
