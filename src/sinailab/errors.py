"""Exception types shared across the toolkit."""


class SinaiLabError(Exception):
    """Base class for all toolkit errors."""


class SamplingFailureError(SinaiLabError):
    """Measure sampling failed persistently (e.g. repeated singular hits)."""


class NonFiniteError(SinaiLabError):
    """A computed exponent, entropy or standard error is not finite."""


class UlamConvergenceError(SinaiLabError):
    """Power iteration on a transfer matrix did not converge."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no stationary density after {iterations} iterations "
            f"(last L1 residual {residual:.3e})"
        )


class UnsupportedSystemError(SinaiLabError):
    """Operation requested is undefined for this system (e.g. backward
    iteration of a non-invertible map)."""


class EscapeError(SinaiLabError):
    """System construction rejected: the declared invariant region is not
    invariant for these parameters. Carries a witness point."""

    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(message)


class SweepAbortError(SinaiLabError):
    """Too many grid points failed during a parameter sweep."""

    def __init__(self, failed, total):
        self.failed = failed
        self.total = total
        super().__init__(f"sweep aborted: {failed}/{total} grid points failed")


class ConfigError(SinaiLabError):
    """Malformed configuration file or option set."""
