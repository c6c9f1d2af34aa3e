"""Exception types shared across the library."""


class SimulationError(Exception):
    """Base class for all library-specific errors."""


class InvalidBlockIndex(SimulationError):
    """An interest set references a block index outside the layout."""


class EmptyCluster(SimulationError):
    """Some block is not claimed by any agent's interest set."""


class NetworkDisconnected(SimulationError):
    """The full agent graph is disconnected; cluster embedding is impossible."""


class DisconnectedCluster(SimulationError):
    """A combination matrix was requested for a disconnected cluster."""


class NotPrimitive(SimulationError):
    """The combination matrix has no unique dominant eigenvalue at one."""


class DimensionMismatch(SimulationError):
    """A vector does not match the layout it is used with."""


class NonFiniteIterate(SimulationError):
    """An iterate diverged or became non-finite."""

    def __init__(self, iteration: int, agent: int, message: str = ""):
        self.iteration = iteration
        self.agent = agent
        super().__init__(
            message or f"non-finite iterate at iteration {iteration}, agent {agent}"
        )


class SingularSystem(SimulationError):
    """An assembled linear system is singular (strong convexity violated)."""


class InfeasibleConstraints(SimulationError):
    """The constraint system admits no solution."""


class WindowTooShort(SimulationError):
    """Not enough samples in the requested fitting window."""


class NonDecreasingMSD(SimulationError):
    """Rate fitting requires a strictly decreasing MSD sequence."""


class ConfigError(SimulationError, ValueError):
    """A scenario configuration failed validation."""
