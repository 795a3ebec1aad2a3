"""Call-boundary tracing installed from outside the program.

A ``Tracer`` wraps the public functions and methods named in ``BOUNDARIES``
and keeps, per boundary, the number of calls, the total time and the self
time (total minus the time spent in nested traced calls). Aggregates stay in
memory; nothing is written until the caller reads ``Tracer.metrics()``.

Patching rules:

* a module-level function is replaced in every ``jordan_osc`` module that
  binds the same object, and in module-level dicts that hold it (such as
  ``cli.EMITTERS``), because modules import each other's names
  (``from .model import apply``) and a patch of the defining module alone
  misses those call sites;
* a method is replaced through its class attribute;
* a boundary that no longer exists is recorded in ``absent`` and reports zero
  calls, so a refactor that removes it never breaks the benchmark.

Times include the worker's speed-sampling loop (about 2% of wall time),
which interrupts whichever boundary is running.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

# (metric prefix, module, attribute path); methods are "Class.method"
BOUNDARIES = (
    ("weyl.DiffOp.apply_to", "jordan_osc.weyl", "DiffOp.apply_to"),
    ("weyl.DiffOp.mul", "jordan_osc.weyl", "DiffOp.__mul__"),
    ("weyl.Poly2.mul", "jordan_osc.weyl", "Poly2.__mul__"),
    ("model.conjugate_through_envelope", "jordan_osc.model", "conjugate_through_envelope"),
    ("model.apply", "jordan_osc.model", "apply"),
    ("model.build_psi", "jordan_osc.model", "build_psi"),
    ("model.build_phi", "jordan_osc.model", "build_phi"),
    ("model.make_operator", "jordan_osc.model", "make_operator"),
    ("gaussint.inner_product", "jordan_osc.gaussint", "inner_product"),
    ("gaussint.moment", "jordan_osc.gaussint", "moment"),
    ("gaussint.gram_block", "jordan_osc.gaussint", "gram_block"),
    ("gaussint.h_block", "jordan_osc.gaussint", "h_block"),
    ("gaussint.expand_in_basis", "jordan_osc.gaussint", "expand_in_basis"),
    ("gaussint.quadrature_oracle", "jordan_osc.gaussint", "quadrature_oracle"),
    ("verifier.check_structure", "jordan_osc.verifier", "check_structure"),
    ("verifier.check_explicit_forms", "jordan_osc.verifier", "check_explicit_forms"),
    ("verifier.check_actions", "jordan_osc.verifier", "check_actions"),
    ("verifier.check_irrep", "jordan_osc.verifier", "check_irrep"),
    ("verifier.check_pseudo_hermiticity", "jordan_osc.verifier", "check_pseudo_hermiticity"),
    ("verifier.check_integrals", "jordan_osc.verifier", "check_integrals"),
    ("cli.emit_json", "jordan_osc.cli", "emit_json"),
)

# boundaries whose distinct argument tuples are counted
DISTINCT = ("model.build_psi",)

# a double carries 53 significant bits whatever its value
FLOAT_BITS = 53


def coeff_bits(c) -> int:
    """Storage size of one coefficient: numerator plus denominator bits for a
    rational, the larger part for a (Gaussian) pair, 53 for a double, 0 for a
    type it does not know."""
    if isinstance(c, (int, Fraction)):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if isinstance(c, (float, complex)):
        return FLOAT_BITS
    return max((coeff_bits(getattr(c, part)) for part in ("re", "im") if hasattr(c, part)), default=0)


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in BOUNDARIES}  # calls, total, child
        self.distinct = {name: set() for name in DISTINCT}
        self.absent: list[str] = []
        self.image_terms_max = 0
        self.coeff_bits_max = 0
        self._stack: list[list[float]] = []
        self._undo: list = []  # callables that restore one patch

    # ---- installation ----
    def install(self) -> None:
        for name, module_name, path in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[attr]
            observe = self._observe_image if name == "model.apply" else None
            wrapper = self._wrap(name, original, observe)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "jordan_osc" and not mod_name.startswith("jordan_osc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    elif isinstance(value, dict):
                        # dispatch tables such as cli.EMITTERS
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch_item(value, k, wrapper)

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_item(self, table: dict, key, wrapper) -> None:
        original = table[key]
        self._undo.append(lambda: table.__setitem__(key, original))
        table[key] = wrapper

    def _wrap(self, name: str, fn, observe):
        stats = self.stats[name]
        seen = self.distinct.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            if observe is not None:
                # the observation is tracer work: keep it out of the caller's self time
                obs_start = clock()
                observe(result)
                if stack:
                    stack[-1][0] += clock() - obs_start
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_image(self, image) -> None:
        terms = getattr(getattr(image, "poly", image), "terms", {})
        self.image_terms_max = max(self.image_terms_max, len(terms))
        for c in terms.values():
            bits = coeff_bits(c)
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    # ---- results ----
    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, child) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = total - child
        for name, seen in self.distinct.items():
            out[f"{name}.distinct"] = len(seen)
        out["weyl.image_terms_max"] = self.image_terms_max
        out["weyl.coeff_bits_max"] = self.coeff_bits_max
        return out
