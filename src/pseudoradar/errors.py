"""Typed errors shared across the package."""


class FormatError(ValueError):
    """A file or byte stream does not match its declared format."""


class ParseError(FormatError):
    """A value inside an otherwise well-formed file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(FormatError):
    """A structured document is missing or misusing a required field."""


class InsufficientDataError(ValueError):
    """Not enough samples for the requested model size."""


class AlignmentError(ValueError):
    """Two frame collections could not be matched one to one."""

    def __init__(self, message: str, orphans: list[str] | None = None):
        self.orphans = orphans or []
        super().__init__(message)


class EmptyFrameError(ValueError):
    """Paired frames with no points on one side; Chamfer is undefined there."""

    def __init__(self, frame_ids: list[str]):
        self.frame_ids = list(frame_ids)
        super().__init__(f"Chamfer distance is undefined for frames with no points: "
                         f"{', '.join(self.frame_ids)}")


class PipelineError(ValueError):
    """A pipeline stage failed; carries the frame id for context."""

    def __init__(self, frame_id: str, message: str):
        self.frame_id = frame_id
        super().__init__(f"frame {frame_id!r}: {message}")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite loss at step {step}")
