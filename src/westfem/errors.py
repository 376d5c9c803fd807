"""Exception types shared across the solver stack."""


class SolverFailure(RuntimeError):
    """Fixed-point iteration exhausted its budget without converging on slab
    `slab`, the time interval `interval` = (t_{n-1}, t_n)."""

    def __init__(self, message, slab=None, increment=None, interval=None):
        super().__init__(message)
        self.slab = slab
        self.increment = increment
        self.interval = interval


class DegenerateCoefficient(SolverFailure):
    """The coefficient 1 + k*u dropped below the admissibility guard."""

    def __init__(self, message, slab=None, coeff_min=None, interval=None):
        super().__init__(message, slab=slab, interval=interval)
        self.coeff_min = coeff_min
