"""Shared test utilities."""

from heronet.autodiff import Tensor


def clone_params(params: dict) -> dict:
    """Deep copy of a parameter store; detached from any graph."""
    return {n: Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for n, t in params.items()}
