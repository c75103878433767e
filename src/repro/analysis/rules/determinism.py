"""DT6xx/RC61x — whole-program determinism & shard-isolation rules.

These are :class:`~repro.analysis.core.ProjectRule` subclasses like the
taint rules: registering them here gives them ids, ``--list-rules``
entries, config enable/disable and suppression support — but
their findings are computed by the project-wide determinism pass in
:mod:`repro.analysis.determinism`, which the engine runs when asked
(``repro-lint --det``).

Rule → shard-parallelism invariant mapping:

DT601–DT606 (nondeterminism sources)
    The fleet simulation must be a pure function of its seeds: the
    merged event trace of a sharded run has to replay byte-identically
    regardless of worker count or ``PYTHONHASHSEED``.  Each DT rule
    flags one way real runs diverge: wall-clock reads, unseeded RNGs,
    address-dependent ``id()``/``hash()``, unordered ``set`` iteration
    reaching an output/digest/wire-encode sink (interprocedurally, via
    the taint machinery), environment/filesystem-order reads, and
    float accumulation over unordered operands.

RC610–RC612 (shard-isolation escapes)
    Once shards fork into worker processes, any object reachable from
    two shards' root sets silently diverges between workers.  The RC
    rules flag state that escapes a single shard: module-level mutable
    globals mutated at run time, class-attribute mutation (shared
    across every instance in a process), and shard-root state crossing
    the ``ServerPool``/``EventLoop`` boundary without the wire codec or
    an explicit migration export.
"""

from __future__ import annotations

from ..core import ProjectRule, register

__all__ = [
    "WallClockRead", "UnseededRandom", "AddressDependentKey",
    "UnorderedIterationSink", "AmbientEnvironmentRead",
    "FloatAccumulationOrder", "MutableModuleGlobal",
    "ClassAttributeMutation", "ShardBoundaryEscape",
]


@register
class WallClockRead(ProjectRule):
    id = "DT601"
    name = "wall-clock-read"
    summary = ("a wall-clock read (time.time, datetime.now, perf_counter "
               "...) in library code — simulated time must come from the "
               "EventLoop's virtual clock")


@register
class UnseededRandom(ProjectRule):
    id = "DT602"
    name = "unseeded-random"
    summary = ("an unseeded or OS-entropy RNG (stdlib random, "
               "np.random.default_rng(), os.urandom, uuid4) — every "
               "stream must derive from an explicit seed")


@register
class AddressDependentKey(ProjectRule):
    id = "DT603"
    name = "address-dependent-key"
    summary = ("id() or builtin hash() in library code — object addresses "
               "and salted hashes differ between processes and runs, so "
               "keying or ordering by them silently corrupts replay")


@register
class UnorderedIterationSink(ProjectRule):
    id = "DT604"
    name = "unordered-iteration-sink"
    summary = ("a value derived from unordered set iteration reaches an "
               "output, digest or wire-encode sink (interprocedural, with "
               "trace) — sort before anything observable")


@register
class AmbientEnvironmentRead(ProjectRule):
    id = "DT605"
    name = "ambient-environment-read"
    summary = ("os.environ or a filesystem-order read (listdir, glob, "
               "iterdir, cpu_count) in library code — ambient host state "
               "differs between workers")


@register
class FloatAccumulationOrder(ProjectRule):
    id = "DT606"
    name = "float-accumulation-order"
    summary = ("a float accumulation (sum/merge) over operands derived "
               "from unordered iteration — float addition is not "
               "associative, so the result depends on hash order")
    severity = "warning"


@register
class MutableModuleGlobal(ProjectRule):
    id = "RC610"
    name = "mutable-module-global"
    summary = ("a module-level mutable global is mutated at run time — "
               "after the shard fork each worker mutates its own copy "
               "and the copies silently diverge")


@register
class ClassAttributeMutation(ProjectRule):
    id = "RC611"
    name = "class-attribute-mutation"
    summary = ("a class attribute is mutated from a function body — class "
               "objects are process-wide, so the mutation is shared by "
               "every shard in the worker")


@register
class ShardBoundaryEscape(ProjectRule):
    id = "RC612"
    name = "shard-boundary-escape"
    summary = ("shard-root internal state (WebServer/EventLoop) is reached "
               "into or aliased across instances outside the strict wire "
               "codec / migration-export conduits")
    severity = "warning"
