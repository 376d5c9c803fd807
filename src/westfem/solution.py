"""Space-time solution table for the DG-CG scheme.

Per slab the trial function is u(s) = u_start + sum_j U_j B_j(s) in the
start-anchored basis of `timefe.TrialBasis` (B_j(0) = 0, j = 1..q).  Slab
start values are shared arrays: the end trace of slab n *is* the start value
of slab n+1, so global continuity holds exactly by representation, not by
round-off luck.
"""

from __future__ import annotations

import numpy as np

from .timefe import TimePartition, trial_basis


class DiscreteSolution:
    """Continuous-in-time, degree-q-per-slab finite element solution."""

    def __init__(self, space, partition: TimePartition, q: int,
                 modes: np.ndarray, start_value: np.ndarray):
        self.basis = trial_basis(q)
        self.space = space
        self.partition = partition
        self.q = q
        nsl = partition.n_slabs
        self.modes = np.asarray(modes)            # (N, q, n_dof)
        if self.modes.shape != (nsl, q, space.n_dof):
            raise ValueError("modes shape mismatch")
        bp = np.empty((nsl + 1, space.n_dof))
        bp[0] = start_value
        for n in range(nsl):
            bp[n + 1] = self.basis.end_value(bp[n], self.modes[n])
        bp.flags.writeable = False     # value() at a breakpoint returns a view of it
        self.bp_values = bp

    # -- slab-local access --------------------------------------------

    def modal(self, n: int) -> np.ndarray:
        """Full shifted-Legendre coefficients (q+1, n_dof) on slab n."""
        return self.basis.to_modal(self.bp_values[n], self.modes[n])

    def rows(self, n: int, s, deriv: int = 0) -> np.ndarray:
        """u (deriv 0) or dt u (deriv 1) on slab n at local points s."""
        return self.basis.rows(self.bp_values[n], self.modes[n], s,
                               self.partition.taus[n], deriv)

    def value_slab(self, n: int, s: float) -> np.ndarray:
        if s == 0.0:
            return self.bp_values[n]
        if s == 1.0:
            return self.bp_values[n + 1]
        return self.rows(n, s)

    def dt_slab(self, n: int, s: float) -> np.ndarray:
        return self.rows(n, s, deriv=1)

    # -- global access ------------------------------------------------

    def value(self, t: float, side: str = "right") -> np.ndarray:
        return self.value_slab(*self.partition.locate(t, side))

    def dt(self, t: float, side: str = "right") -> np.ndarray:
        return self.dt_slab(*self.partition.locate(t, side))
