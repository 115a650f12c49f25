"""Exception types shared across the package."""


class LorenzLabError(Exception):
    """Base class for all lorenzlab errors."""


class CriticalPointEval(LorenzLabError):
    """Map or derivative evaluated exactly at the critical point."""


class NoiseOutOfRange(LorenzLabError):
    """Noise value exceeds the admissible amplitude of the family."""


class OutOfBranchRange(LorenzLabError):
    """Inverse-branch query outside the unit interval."""


class CriticalHit(LorenzLabError):
    """An orbit landed within the machine guard of the critical point."""

    def __init__(self, step, point):
        self.step = step
        self.point = point
        super().__init__(f"orbit hit critical guard at step {step} (x={point!r})")


class DeltaOutOfRange(LorenzLabError):
    """Critical-neighborhood scale outside the admissible range."""


class PartitionTooCoarse(LorenzLabError):
    """A partition bin straddles the critical point."""


class NoConvergence(LorenzLabError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")


class PartitionMismatch(LorenzLabError):
    """Two densities live on different partitions."""


class EmptyPullback(LorenzLabError):
    """A preimage component vanished while pulling back a chain."""


class VerificationFailed(LorenzLabError):
    """A candidate Markov inducing time failed direct verification.

    ``reason`` names the check that failed (see ``inducing.VERIFY_REASONS``).
    """

    def __init__(self, message, reason):
        self.reason = reason
        super().__init__(message)


class NotDiffeomorphic(LorenzLabError):
    """A pullback chain has positive order, so the branch is not a diffeomorphism."""


class ConfigInvalid(LorenzLabError):
    """Experiment configuration failed validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))
