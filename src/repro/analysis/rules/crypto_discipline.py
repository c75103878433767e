"""CD2xx — crypto discipline rules.

CD201: stdlib ``random`` is banned inside the trusted crypto/flock
packages.  Every bit of randomness feeding key material must come from
``repro.crypto.rng`` (the HMAC-DRBG standing in for the ASIC's TRNG);
a Mersenne Twister seeded from the clock would quietly void the paper's
key-unpredictability argument.  NumPy generators (``np.random.*``) are
attribute accesses on ``np`` and do not match — they drive the *physics*
simulation, not key material.

CD202: ``==``/``!=`` on secret-named byte values leaks timing (CPython
``bytes.__eq__`` short-circuits on the first differing byte).  MAC tags,
signatures and keys must go through ``repro.crypto.constant_time_equal``.
Comparisons against literal constants are exempt: ``tag == "b"`` is a
type-tag dispatch, not a secret comparison.

CD203: MD5 appears in the paper only as the cheap frame-hash option for
the display repeater (section IV-B); anywhere else a weak hash is a bug.
The allowed module list lives in the config.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import (WEAK_HASH_ALLOWED_MODULES, WEAK_HASH_NAMES,
                      AnalysisConfig)
from ..core import Finding, ModuleContext, Rule, register, terminal_name

__all__ = ["StdlibRandomInCrypto", "TimingUnsafeComparison",
           "WeakHashOutsideFramePath"]


@register
class StdlibRandomInCrypto(Rule):
    id = "CD201"
    name = "stdlib-random-in-crypto"
    summary = ("stdlib random is banned in repro.crypto/repro.flock; draw "
               "from repro.crypto.rng.HmacDrbg instead")

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        if not config.in_rng_clean_package(ctx.module):
            return
        remedy = "use repro.crypto.rng.HmacDrbg for all randomness here"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self.id, node,
                            f"stdlib 'random' imported in trusted package "
                            f"{ctx.package}; {remedy}")
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and (
                        node.module == "random"
                        or node.module.startswith("random.")):
                    yield ctx.finding(
                        self.id, node,
                        f"stdlib 'random' imported in trusted package "
                        f"{ctx.package}; {remedy}")
            elif isinstance(node, ast.Name):
                if node.id == "random" and isinstance(node.ctx, ast.Load):
                    yield ctx.finding(
                        self.id, node,
                        f"reference to stdlib 'random' in trusted package "
                        f"{ctx.package}; {remedy}")


@register
class TimingUnsafeComparison(Rule):
    id = "CD202"
    name = "timing-unsafe-comparison"
    summary = ("== / != on secret-named byte values leaks timing; use "
               "repro.crypto.constant_time_equal")

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            # A literal operand means dispatch on a public constant
            # (type tags, sentinel strings), not a secret comparison.
            if any(isinstance(op, ast.Constant) for op in operands):
                continue
            for operand in operands:
                name = terminal_name(operand)
                if name is None or not config.is_secret_bytes_name(name):
                    continue
                yield ctx.finding(
                    self.id, node,
                    f"equality on secret-named value {name!r} is not "
                    "constant-time; use repro.crypto.constant_time_equal")
                break  # one finding per comparison


@register
class WeakHashOutsideFramePath(Rule):
    id = "CD203"
    name = "weak-hash-outside-frame-path"
    summary = ("MD5 is only acceptable on the frame-hash display path "
               "(paper section IV-B)")

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        if ctx.module in WEAK_HASH_ALLOWED_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in WEAK_HASH_NAMES:
                        yield ctx.finding(
                            self.id, node,
                            f"weak hash {alias.name!r} imported outside the "
                            "frame-hash display path")
            elif isinstance(node, ast.Name):
                if node.id in WEAK_HASH_NAMES \
                        and isinstance(node.ctx, ast.Load):
                    yield ctx.finding(
                        self.id, node,
                        f"weak hash {node.id!r} referenced outside the "
                        "frame-hash display path")
            elif isinstance(node, ast.Attribute):
                if node.attr in WEAK_HASH_NAMES \
                        and isinstance(node.ctx, ast.Load):
                    yield ctx.finding(
                        self.id, node,
                        f"weak hash .{node.attr} referenced outside the "
                        "frame-hash display path")
