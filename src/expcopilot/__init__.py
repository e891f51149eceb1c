"""Experience-driven ML configuration suggestions via LLM prompting.

The package root holds the names of the README's library example and of the
benchmark harness; every other name is imported from its module."""

from .elicitation import ElicitationConfig
from .gateway import NearestNeighborPolicy, ScriptedBackend

__all__ = ["ElicitationConfig", "NearestNeighborPolicy", "ScriptedBackend"]
