"""Error types shared across the package."""


class CoverageError(ValueError):
    """A primality table was asked about integers outside its range.

    Carries the required range as required_lo, required_hi; the message names the table's too.
    """

    def __init__(self, required_lo, required_hi, have_lo, have_hi):
        self.required_lo = required_lo
        self.required_hi = required_hi
        super().__init__(
            f"table covers [{have_lo}, {have_hi}] but [{required_lo}, "
            f"{required_hi}] is required"
        )


class ResourceError(RuntimeError):
    """The requested accuracy or problem size exceeds the configured budget."""


class InadmissibleModulusError(ValueError):
    """A prime p with nu_H(p) = p appeared where the sieve weights need nu < p."""
