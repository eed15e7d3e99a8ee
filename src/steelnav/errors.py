"""Exception hierarchy shared by all steelnav modules."""


class SteelNavError(Exception):
    """Base class for all steelnav errors."""


# --- cloud ---------------------------------------------------------------

class ParseError(SteelNavError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidPoints(SteelNavError, ValueError):
    """Points that are not an (N, 3) array of finite numbers, or whose
    squared distances overflow in k-means++ seeding; there it keeps the
    text of NumPy's ValueError on the seeding weights."""


class InvalidRange(SteelNavError):
    pass


class InvalidLeaf(SteelNavError):
    pass


class DegenerateCloud(SteelNavError):
    pass


class NoPlane(SteelNavError):
    pass


class WrongFrame(SteelNavError):
    pass


# --- boundary ------------------------------------------------------------

class EmptyInput(SteelNavError):
    pass


class InvalidAlpha(SteelNavError):
    pass


class EmptyBoundary(SteelNavError):
    pass


# --- segmentation --------------------------------------------------------

class TooFewPoints(SteelNavError):
    pass


class SingularCovariance(SteelNavError):
    def __init__(self, component):
        super().__init__(f"component {component} covariance not SPD")
        self.component = component


# --- graph ---------------------------------------------------------------

class DegenerateCluster(SteelNavError):
    pass


# --- route ---------------------------------------------------------------

class UnknownVertex(SteelNavError):
    pass


class OddCardinality(SteelNavError):
    pass


class DisconnectedEndpoints(SteelNavError):
    pass


class EmptyGraph(SteelNavError):
    pass


class ParityViolation(SteelNavError):
    pass


class TooLarge(SteelNavError):
    pass


# --- planner -------------------------------------------------------------

class EmptyBoundaries(SteelNavError):
    pass


class StartInvalid(SteelNavError):
    pass


class GoalInvalid(SteelNavError):
    pass


class NoPathFound(SteelNavError):
    pass


class InvalidStep(SteelNavError):
    pass


class InvalidFootprint(SteelNavError):
    pass


# --- synth / cli ---------------------------------------------------------

class InvalidSpec(SteelNavError):
    pass


class ConfigError(SteelNavError):
    pass
