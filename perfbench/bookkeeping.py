"""Pure bookkeeping for the benchmark: op outcomes, latency percentiles and
per-module aggregation of profiler statistics.

Nothing here imports lierep at import time, so the rules can be tested in
isolation.
"""

import importlib
import inspect
import os
import statistics
from dataclasses import dataclass, field

# Outcomes of one op.  A refusal is a typed resource refusal (CapExceeded in
# process, exit code 2 from the CLI): the op failed but printed no wrong
# answer.  An error is any other exception or non-zero exit; a mismatch is
# an answer that disagrees with its oracle or recorded reference.
OK, REFUSED, ERROR, MISMATCH = "ok", "refused", "error", "mismatch"
OUTCOMES = (OK, REFUSED, ERROR, MISMATCH)

# Layers: the modules of src/lierep that the benchmark reports, plus the
# stdlib module that does their exact arithmetic.
LIEREP_LAYERS = ("rootsystem", "weyl", "characters", "tensor", "irreps",
                 "linalg", "enveloping", "hpoly", "determinants",
                 "centralchar", "hcmodules", "cli")
LAYERS = LIEREP_LAYERS + ("fractions",)

# Named call counts: metric name -> the functions, as "module:qualified
# name", whose calls it sums.  For a memoised function this counts
# executions of its body, that is, cache misses.
CALL_COUNTS = {
    "characters.partition.calls": ("lierep.characters:_pf",),
    # dominant tables by Freudenthal and by the alternating sum
    "characters.dominant_table.calls": (
        "lierep.characters:_dominant_table",
        "lierep.characters:_dominant_table_fast"),
    "rootsystem.orbit.calls": ("lierep.rootsystem:RootSystem.orbit",),
    "rootsystem.weight_new.calls": (
        "lierep.rootsystem:Weight.__post_init__",),
    "tensor.char_product.calls": ("lierep.tensor:_char_product",),
    "irreps.verma_level.calls": ("lierep.irreps:VermaEngine.level",),
    "irreps.e_apply.calls": ("lierep.irreps:VermaEngine._e_apply",),
    "linalg.span_add.calls": ("lierep.linalg:SpanBasis.add",),
    "enveloping.straighten.calls": (
        "lierep.enveloping:PBWAlgebra.straighten",),
    "weyl.bruhat_leq.calls": ("lierep.weyl:bruhat_leq",),
    "fractions.new.calls": ("fractions:Fraction.__new__",),
}


# Public-call families: span name -> the function it times.  In process the
# benchmark's own spans time each call; in cli-cold the calls happen in
# child processes, so the children's cProfile cumulative time of the
# function stands in.
FAMILIES = {
    "tensor.decompose.character": "lierep.tensor:_decompose_character",
    "tensor.decompose.steinberg": "lierep.tensor:_decompose_steinberg",
    "tensor.decompose.klimyk": "lierep.tensor:_decompose_klimyk",
    "tensor.decompose.prv": "lierep.tensor:_decompose_extremes",
    "characters.character_of": "lierep.characters:character_of",
    "irreps.kprv_multiplicity": "lierep.irreps:kprv_multiplicity",
    "determinants.shapovalov_det": "lierep.determinants:shapovalov_det",
    "determinants.prv_det": "lierep.determinants:prv_det",
    "enveloping.casimir_power": "lierep.enveloping:UElement.__pow__",
    "enveloping.hc_projection": "lierep.enveloping:hc_projection",
    "weyl.bruhat_leq": "lierep.weyl:bruhat_leq",
    "hcmodules.equivalent": "lierep.hcmodules:equivalent",
}


@dataclass
class OpRecord:
    """One attempted op: its family, its latency and how it ended."""
    family: str
    stratum: str
    seconds: float
    outcome: str
    detail: str = ""


@dataclass
class Tally:
    """Counts of op outcomes; a failed op is any outcome other than OK."""
    counts: dict = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))

    def add(self, outcome):
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += 1

    @property
    def attempted(self):
        return sum(self.counts.values())

    @property
    def succeeded(self):
        return self.counts[OK]

    @property
    def failed(self):
        return self.attempted - self.succeeded

    @property
    def correct(self):
        """No op gave a wrong answer or broke unexpectedly; a typed refusal
        is a failure but not a wrong answer."""
        return self.counts[ERROR] == 0 and self.counts[MISMATCH] == 0

    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def ok_ratio(self):
        return self.succeeded / self.attempted if self.attempted else 0.0


def tally(outcomes):
    t = Tally()
    for outcome in outcomes:
        t.add(outcome)
    return t


def tail_rank(n, beyond=10):
    """The 0-based rank, in ascending order, of the highest percentile of n
    samples that still has `beyond` samples above it, with that percentile
    p = 1 - beyond/n; None when n <= beyond."""
    if n <= beyond:
        return None
    return n - beyond - 1, 1 - beyond / n


def latency_summary(seconds, beyond=10):
    """Median and tail latency of a list of op latencies in seconds."""
    ordered = sorted(seconds)
    rank = tail_rank(len(ordered), beyond)
    if rank is None:
        raise ValueError(f"need more than {beyond} ops for a tail latency, "
                         f"got {len(ordered)}")
    idx, p = rank
    return {"p50_s": statistics.median(ordered), "tail_s": ordered[idx],
            "tail_p": p, "n": len(ordered)}


def resolve(target):
    """The function named by a "module:qualified.name" string."""
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def code_key(func):
    """The (filename, first line, name) key under which cProfile reports a
    function; memoising wrappers are looked through."""
    code = inspect.unwrap(func).__code__
    return os.path.realpath(code.co_filename), code.co_firstlineno, \
        code.co_name


def layer_files(modules):
    """Map each module's real source path to its layer name (the last
    component of the module name)."""
    return {os.path.realpath(m.__file__): m.__name__.rpartition(".")[2]
            for m in modules}


def aggregate_profile(stats, files):
    """Sum cProfile statistics by layer.

    `stats` maps (filename, line, function) to (primitive calls, total
    calls, tottime, cumtime, callers), the layout of pstats.Stats.stats;
    `files` maps a source path to its layer, as layer_files builds it.
    Returns ({layer: self seconds}, {(path, line, function): (total calls,
    cumtime)}) where the second map keeps only functions of some layer.
    """
    self_s = {}
    per_function = {}
    for (filename, line, func), (_cc, nc, tt, ct, _callers) in stats.items():
        path = os.path.realpath(filename) if filename[:1] not in "<~" \
            else filename
        layer = files.get(path)
        if layer is None:
            continue
        self_s[layer] = self_s.get(layer, 0.0) + tt
        calls, cum = per_function.get((path, line, func), (0, 0.0))
        per_function[(path, line, func)] = (calls + nc, cum + ct)
    return self_s, per_function
