"""Test helpers shared across modules."""

from segprompt.nn import Tensor


def cast_params(params: dict[str, Tensor], dtype) -> None:
    """Cast each parameter to ``dtype`` in place, as ``ReportModel(dtype=...)``
    does: for a bare component, such as a ``DecoderLm``, built in float64."""
    for p in params.values():
        p.data = p.data.astype(dtype, copy=False)
