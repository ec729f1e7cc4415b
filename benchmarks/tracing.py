"""Spans around the calls into each package module, recorded from outside.

``Tracer.install`` replaces every binding of the traced functions -- the
defining module, the ``from .algebra import ...`` copies in other modules,
dict values such as ``verify.SUITES``, both ``Poly.__mul__`` and
``Poly.__rmul__``, and the callbacks of the click commands -- with a
wrapper that records (name, start, end, parent) and per-layer counters.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Spans stay in memory and are written out by ``write_spans`` when the run
ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

#: Click commands timed as ``cli.<command>`` in the in-process traced pass.
CLI_COMMANDS = ("solve", "aim", "eigenfunction", "nu", "verify")

#: verify.SUITES keys timed as ``verify.<suite>``.
VERIFY_SUITES = ("table1", "gamma", "morse", "hulthen", "kratzer", "eigenfunctions", "nu", "delta", "aim")


def _bits(values) -> int:
    return sum(v.numerator.bit_length() + v.denominator.bit_length() for v in values)


def _count_mul(c, args, result):
    a, b = args
    if isinstance(b, (Fraction, int)):
        c["algebra.poly_mul.coeff_products"] += len(a.coeffs)
        c["algebra.poly_mul.operand_bits"] += _bits(a.coeffs) + _bits((Fraction(b),))
        return
    c["algebra.poly_mul.coeff_products"] += sum(1 for x in a.coeffs if x != 0) * len(b.coeffs)
    c["algebra.poly_mul.operand_bits"] += _bits(a.coeffs) + _bits(b.coeffs)


def _count_ratfunc(c, args, result):
    self, num = args[0], args[1]
    den = args[2] if len(args) > 2 else 1
    den_degree = len(den.coeffs) - 1 if hasattr(den, "coeffs") else 0
    if num != 0 and len(self.den.coeffs) - 1 < den_degree:
        c["algebra.ratfunc_init.reduced"] += 1


def _count_roots(c, args, result):
    bits = max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in args[0].coeffs),
        default=0,
    )
    c["algebra.rational_roots.max_input_bits"] = max(c["algebra.rational_roots.max_input_bits"], bits)
    if result[0]:
        c["algebra.rational_roots.hits"] += 1


def _count_phi(c, args, result):
    c["nu.reductions"] += len(result)
    c["nu.phi_supported"] += sum(1 for r in result if r.phi is not None)


#: (metric prefix, module, class or None, attribute, counter hook)
TARGETS = (
    ("algebra.poly_mul", "aimnu.algebra", "Poly", "__mul__", _count_mul),
    ("algebra.poly_divmod", "aimnu.algebra", "Poly", "__divmod__", None),
    ("algebra.poly_gcd", "aimnu.algebra", None, "poly_gcd", None),
    ("algebra.ratfunc_init", "aimnu.algebra", "RatFunc", "__init__", _count_ratfunc),
    ("algebra.rational_roots", "aimnu.algebra", None, "rational_roots", _count_roots),
    ("algebra.partial_fractions", "aimnu.algebra", None, "partial_fractions", None),
    ("algebra.weightexpr_init", "aimnu.algebra", "WeightExpr", "__init__", None),
    ("aim.solve_iterative", "aimnu.aim", None, "solve_iterative", None),
    ("aim.iterate", "aimnu.aim", None, "iterate", None),
    ("eigenfunctions.rodrigues", "aimnu.eigenfunctions", None, "rodrigues", None),
    ("eigenfunctions.polynomial_solution", "aimnu.eigenfunctions", None, "polynomial_solution", None),
    ("eigenfunctions.y_low_order", "aimnu.eigenfunctions", None, "y_low_order", None),
    ("eigenfunctions.pearson_weight", "aimnu.eigenfunctions", None, "pearson_weight", None),
    ("nu.nu_find_k", "aimnu.nu", None, "nu_find_k", _count_phi),
    ("nu.build_phi", "aimnu.nu", None, "build_phi", None),
    ("hypergeometric.eigenvalue", "aimnu.hypergeometric", None, "eigenvalue", None),
)

#: Per-layer metrics, in report order: (name, unit, better).
PER_LAYER = (
    ("algebra.poly_mul.calls", "count", "lower"),
    ("algebra.poly_mul.coeff_products", "count", "lower"),
    ("algebra.poly_mul.operand_bits", "bits", "lower"),
    ("algebra.poly_mul.busy_s", "s", "lower"),
    ("algebra.poly_divmod.calls", "count", "lower"),
    ("algebra.poly_divmod.busy_s", "s", "lower"),
    ("algebra.poly_gcd.calls", "count", "lower"),
    ("algebra.poly_gcd.busy_s", "s", "lower"),
    ("algebra.ratfunc_init.calls", "count", "lower"),
    ("algebra.ratfunc_init.busy_s", "s", "lower"),
    ("algebra.ratfunc_init.reduced_ratio", "ratio", "higher"),
    ("algebra.rational_roots.calls", "count", "lower"),
    ("algebra.rational_roots.busy_s", "s", "lower"),
    ("algebra.rational_roots.max_input_bits", "bits", "lower"),
    ("algebra.rational_roots.hit_ratio", "ratio", "higher"),
    ("algebra.partial_fractions.calls", "count", "lower"),
    ("algebra.partial_fractions.busy_s", "s", "lower"),
    ("algebra.weightexpr_init.calls", "count", "lower"),
    ("algebra.weightexpr_init.busy_s", "s", "lower"),
    ("aim.solve_iterative.calls", "count", "lower"),
    ("aim.solve_iterative.busy_s", "s", "lower"),
    ("aim.solve_iterative.self_s", "s", "lower"),
    ("aim.iterate.calls", "count", "lower"),
    ("aim.iterate.busy_s", "s", "lower"),
    *(
        (f"eigenfunctions.{fn}.{m}", unit, "lower")
        for fn in ("rodrigues", "polynomial_solution", "y_low_order", "pearson_weight")
        for m, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ),
    ("nu.nu_find_k.calls", "count", "lower"),
    ("nu.nu_find_k.busy_s", "s", "lower"),
    ("nu.nu_find_k.self_s", "s", "lower"),
    ("nu.build_phi.calls", "count", "lower"),
    ("nu.build_phi.busy_s", "s", "lower"),
    ("nu.phi_supported_ratio", "ratio", "higher"),
    ("hypergeometric.eigenvalue.calls", "count", "lower"),
    ("hypergeometric.eigenvalue.busy_s", "s", "lower"),
    *((f"verify.{suite}.busy_s", "s", "lower") for suite in VERIFY_SUITES),
    ("cli.import_s", "s", "lower"),
    *((f"cli.{cmd}.busy_s", "s", "lower") for cmd in CLI_COMMANDS),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    """Records spans and per-name calls, busy time and self time."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index); None while open
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time inside child spans]
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list = []

    # -- recording ------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        spans, stack, depth = self.spans, self._stack, self._depth
        idx = len(spans)
        spans.append(None)
        parent = stack[-1][0] if stack else -1
        frame = [idx, 0.0]
        stack.append(frame)
        depth[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            depth[name] -= 1
            dur = end - start
            spans[idx] = (name, start, end, parent)
            self.calls[name] += 1
            self.self_time[name] += dur - frame[1]
            if depth[name] == 0:  # nested same-name spans are inside this one
                self.busy[name] += dur
            if stack:
                stack[-1][1] += dur

    def _wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Rebind every module global and module-level dict value that is ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "aimnu" or mod_name.startswith("aimnu.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._restore.append((value, k, original))
                            value[k] = wrapper

    def install(self):
        import aimnu.cli  # noqa: F401  (loads every module whose bindings are replaced)

        for name, mod_name, cls_name, attr, count in TARGETS:
            module = sys.modules[mod_name]
            if cls_name is None:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._wrap(name, original, count))
                continue
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(name, original, count)
            for key, value in list(cls.__dict__.items()):
                if value is original:  # __mul__ and its alias __rmul__
                    self._restore.append((cls, key, original))
                    setattr(cls, key, wrapper)
        verify = sys.modules["aimnu.verify"]
        for suite in VERIFY_SUITES:
            original = verify.SUITES[suite]
            self._replace_everywhere(original, self._wrap(f"verify.{suite}", original, None))
        commands = sys.modules["aimnu.cli"].main.commands
        for cmd in CLI_COMMANDS:
            command = commands[cmd]
            self._restore.append((command, "callback", command.callback))
            command.callback = self._wrap(f"cli.{cmd}", command.callback, None)

    def uninstall(self):
        for container, key, original in reversed(self._restore):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every traced per-layer metric of PER_LAYER, from the spans recorded."""
        c = self.counters
        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls.get(prefix, 0)
            elif field == "busy_s":
                out[name] = self.busy.get(prefix, 0.0)
            elif field == "self_s":
                out[name] = self.self_time.get(prefix, 0.0)
        out["algebra.poly_mul.coeff_products"] = c["algebra.poly_mul.coeff_products"]
        out["algebra.poly_mul.operand_bits"] = c["algebra.poly_mul.operand_bits"]
        out["algebra.ratfunc_init.reduced_ratio"] = _ratio(
            c["algebra.ratfunc_init.reduced"], self.calls.get("algebra.ratfunc_init", 0)
        )
        out["algebra.rational_roots.max_input_bits"] = c["algebra.rational_roots.max_input_bits"]
        out["algebra.rational_roots.hit_ratio"] = _ratio(
            c["algebra.rational_roots.hits"], self.calls.get("algebra.rational_roots", 0)
        )
        out["nu.phi_supported_ratio"] = _ratio(c["nu.phi_supported"], c["nu.reductions"])
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted."""
    return num / den if den else 0.0
