"""SNIC002/SNIC005 — nondeterminism in simulation paths.

The event kernel (:mod:`repro.hw.events`) promises bit-identical reruns:
the determinism checker (:mod:`repro.analysis.determinism`) and the
noninterference experiments both depend on it.  Two static rules guard
that promise:

* **SNIC002** — wall-clock reads (``time.time``), module-level random
  draws (``random.random()`` instead of a seeded ``random.Random``),
  RNG seeds built from the built-in ``hash()`` (randomized per process
  by PYTHONHASHSEED for str/bytes), and set iteration feeding
  ``schedule()`` (set order is hash-randomized the same way).
  ``time.perf_counter``/``perf_counter_ns`` are deliberately *not*
  flagged: they measure host wall-time for profiling and never feed
  simulated time.
* **SNIC005** — float arithmetic on sim-time nanoseconds.  The kernel
  clock is integral by design; a float delay in ``schedule()`` (or
  float arithmetic on ``*_ns`` state inside the kernel/runtime) makes
  event ordering depend on rounding.  Analog latency *models* (bus,
  accelerators) use float ns as their modelling currency and are out of
  scope — the rule only polices what reaches the kernel.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.lint import (
    Finding,
    ModuleSource,
    Rule,
    dotted_name,
)

_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}

#: Module-level draws on the shared, unseeded global RNG.  Constructing
#: ``random.Random(seed)`` / ``random.SystemRandom()`` /
#: ``np.random.default_rng(seed)`` is the *fix*, so those are not listed.
_RANDOM_DRAWS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "paretovariate", "vonmisesvariate", "triangular",
    "getrandbits", "random_sample", "rand", "randn", "permutation",
}
_RANDOM_MODULES = {"random", "np.random", "numpy.random"}

#: Seeded-RNG constructors and reseeders: their seed arguments must be
#: stable across processes.
_RNG_SEEDERS = {
    "random.Random", "random.seed",
    "np.random.default_rng", "np.random.seed",
    "numpy.random.default_rng", "numpy.random.seed",
}

_SCHEDULE_METHODS = {"schedule", "schedule_at"}

#: Modules whose ``*_ns`` state is kernel sim-time (integral by
#: contract); everywhere else float ns is legitimate model currency.
_KERNEL_MODULES = ("repro.hw.events", "repro.core.runtime")


def _is_schedule_call(node: ast.Call) -> bool:
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr in _SCHEDULE_METHODS


def _calls_hash(node: ast.Call) -> bool:
    """Whether any argument of ``node`` calls the built-in ``hash()``."""
    return any(isinstance(child, ast.Call) and dotted_name(child.func) == "hash"
               for arg in [*node.args, *node.keywords]
               for child in ast.walk(arg))


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    # set algebra (a | b, a - b) over set() calls
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class NondeterminismRule(Rule):
    rule_id = "SNIC002"
    title = "nondeterminism leaking into simulation paths"
    rationale = ("§5/§6 experiments and the determinism checker require "
                 "bit-identical reruns; wall clocks, unseeded global "
                 "RNGs, and set iteration order break that")
    hint = ("use a seeded random.Random(seed)/np.random.default_rng(seed) "
            "instance with a stable seed (repro.scenario.spec.derive_seed, "
            "not hash()), simulated time (Simulator.now_ns), and sorted() "
            "before iterating a set whose order reaches schedule()")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK:
                    yield self.finding(
                        module, node,
                        f"wall-clock read {name}() in simulation code")
                elif name in _RNG_SEEDERS and _calls_hash(node):
                    yield self.finding(
                        module, node,
                        f"{name}() seeded from the built-in hash(), which "
                        f"PYTHONHASHSEED randomizes per process")
                elif "." in name:
                    prefix, _, attr = name.rpartition(".")
                    if prefix in _RANDOM_MODULES and attr in _RANDOM_DRAWS:
                        yield self.finding(
                            module, node,
                            f"module-level random draw {name}() uses the "
                            f"shared unseeded RNG")
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                schedule = next(
                    (n for child in node.body for n in ast.walk(child)
                     if isinstance(n, ast.Call) and _is_schedule_call(n)),
                    None)
                if schedule is not None:
                    yield self.finding(
                        module, node,
                        "set iteration order escapes into "
                        "events.schedule() arguments")


def _float_source(node: ast.AST) -> Optional[ast.AST]:
    """The sub-expression proving ``node`` is float-valued, if any."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            return child
        if isinstance(child, ast.Call) and \
                isinstance(child.func, ast.Name) and child.func.id == "float":
            return child
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return child
    return None


def _mentions_sim_ns(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id.endswith("_ns"):
            return True
        if isinstance(child, ast.Attribute) and child.attr.endswith("_ns"):
            return True
    return False


class FloatSimTimeRule(Rule):
    rule_id = "SNIC005"
    title = "float arithmetic on sim-time nanoseconds"
    rationale = ("the event kernel's clock is integral; float delays make "
                 "event order depend on rounding, breaking the stable "
                 "same-instant ordering guarantee")
    hint = ("keep kernel sim-time integral: round/int() the model's float "
            "latency once, at the schedule() boundary")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        in_kernel = module.modname.startswith(_KERNEL_MODULES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_schedule_call(node) \
                    and node.args:
                source = _float_source(node.args[0])
                if source is not None:
                    yield self.finding(
                        module, node,
                        "provably float-valued delay/time passed to "
                        "schedule(); sim-time must stay integral")
            elif in_kernel and isinstance(node, ast.BinOp):
                has_float = isinstance(
                    node.left, ast.Constant) and isinstance(
                    node.left.value, float) or (
                    isinstance(node.right, ast.Constant) and isinstance(
                        node.right.value, float))
                if has_float and (_mentions_sim_ns(node.left)
                                  or _mentions_sim_ns(node.right)):
                    yield self.finding(
                        module, node,
                        "float constant mixed into *_ns kernel sim-time "
                        "arithmetic")
