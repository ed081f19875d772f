"""Resource caps threaded through the expensive entry points."""

from dataclasses import dataclass

from .errors import CapExceeded

# the tensor product algorithms, in the order decompose_all compares them;
# the CLI's --method choices come from here, so the parser needs no tensor
METHODS = ("character", "steinberg", "klimyk", "prv")

# the CLI flag that raises each cap
_FLAGS = {"max_weyl": "--max-weyl", "max_dim": "--max-dim",
          "max_char": "--max-dim"}


@dataclass(frozen=True)
class Caps:
    """Limits for enumeration- and dimension-bounded computations.

    max_weyl: largest Weyl group order that full enumeration will attempt
        (default covers every rank <= 4 type; the E series is refused).
    max_dim: largest module dimension `realize` and tensor modules accept.
    max_char: largest dim V(lambda) whose character or dominant table (as in
        `prv_det`) is built.
    """

    max_weyl: int = 1152
    max_dim: int = 400
    max_char: int = 20000

    @classmethod
    def from_flags(cls, max_dim=None, max_weyl=None):
        """The caps the CLI flags ask for: --max-dim sets max_dim and
        max_char, --max-weyl sets max_weyl; an absent flag keeps the default."""
        given = {}
        if max_dim is not None:
            given.update(max_dim=max_dim, max_char=max_dim)
        if max_weyl is not None:
            given["max_weyl"] = max_weyl
        return cls(**given)

    def check(self, name, value, what, *args):
        """Raise CapExceeded, naming the flag that raises cap `name`, when
        value exceeds it.  The message describes value as what.format(*args),
        formatted only on refusal: most checks pass."""
        cap = getattr(self, name)
        if value > cap:
            raise CapExceeded(f"{what.format(*args)} = {value} exceeds "
                              f"{name} cap {cap}; raise it with {_FLAGS[name]}")


DEFAULT_CAPS = Caps()
