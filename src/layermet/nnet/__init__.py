"""Minimal neural-network engine: layers, models, training, serialization.

The submodules are `layers`, `models`, `io` and `gradcheck`; import from them.
The package itself holds only the errors that the command line maps to exit
codes, so that naming them loads no net.
"""


class ModelFormatError(ValueError):
    """Weight data is malformed; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ArchitectureMismatchError(ModelFormatError):
    pass


class DivergenceError(RuntimeError):
    """Training loss became non-finite; `epoch` is where it happened."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch
