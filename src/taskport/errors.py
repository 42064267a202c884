"""Exception types shared across the package."""


class TaskportError(Exception):
    """Base class for all errors raised by this package."""


class CheckpointError(TaskportError):
    """Base class for checkpoint container problems."""


class MalformedManifestError(CheckpointError):
    """manifest.json is missing, unparseable, or structurally invalid."""


class MissingTensorError(CheckpointError):
    def __init__(self, name: str):
        self.tensor = name
        super().__init__(f"missing tensor {name!r}")


class ShapeMismatchError(CheckpointError):
    def __init__(self, name: str, detail: str = ""):
        self.tensor = name
        super().__init__(f"shape mismatch for tensor {name!r}" + (f": {detail}" if detail else ""))


class NonFiniteTensorError(CheckpointError):
    def __init__(self, name: str):
        self.tensor = name
        super().__init__(f"tensor {name!r} contains non-finite values")


class AssignmentFormatError(TaskportError):
    """A permutation-assignment file is malformed or not a bijection."""


class UnknownVariableError(TaskportError):
    """An assignment names a permutation variable the coupling graph does not define."""


class IncompleteAssignmentError(TaskportError):
    """An assignment is missing one or more of the graph's permutation variables."""


class ArchMismatchError(TaskportError):
    """Two weight sets (or a weight set and a companion artifact) disagree on architecture."""


class NumericalFailureError(TaskportError):
    """An iterative numerical scheme failed to converge within its iteration cap."""
