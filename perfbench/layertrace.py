"""Per-layer tracing of cubix from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper under
every name it is looked up by: module globals of all loaded ``cubix``
modules (so ``cubical.rank`` and ``harrison.image_basis`` are both caught,
not only ``linalg.rank``) and class attributes for methods.  Nothing under
``src/`` is edited.

Each traced call records a span ``[name, start, end, parent]``, and a
layer's self time is its spans' durations minus the time covered by their
child spans (the children's wrapper cost included, so bookkeeping such as
``before``/``after`` hooks never lands in a parent's self time).  The three
hottest calls, ``RationalMatrix.__mul__``, ``act`` and ``class_block``, are
counters only: they count calls and their inclusive time but record no span,
so their time stays inside the self time of the span that made the call and
the two views overlap.  Spans and counters stay in memory and are returned
once by ``report()``.

A target that no longer exists (a later refactor may remove
``orbit_eulerian_matrix`` or ``class_block``) is listed in ``absent`` and
the metrics that only it feeds are omitted instead of failing the run.
"""

import importlib
import sys
import time
import weakref
from math import factorial

# cubix.suites.SUITE_NAMES, spelled out because BENCHMARK.json names one
# metric per suite
SUITES = (
    "prop1", "cor2", "cor3", "cor4", "cor5",
    "ass", "harrison", "induction", "oracles", "structural",
)


def _max_bits(matrix) -> int:
    """Largest bit length of a numerator or denominator among the entries."""
    best = 0
    for row in matrix.rows.values():
        for v in row.values():
            if type(v) is int:
                b = abs(v).bit_length()
            else:
                b = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = {}
        self.calls = {}
        self.counters = {
            "modules.act_distinct": 0,
            "cubical.dim_total": 0,
            "cubical.nnz_total": 0,
            "linalg.rank_total": 0,
            "linalg.max_bits": 0,
            "harrison.euler_terms": 0,
            "harrison.dim_total": 0,
        }
        self.installed = set()
        self.layers = {"cli.main"}
        self.absent = []
        self._stack = []
        self._acted = {}
        self._degrees = weakref.WeakSet()

    # -- the wrapper ---------------------------------------------------------

    def wrap(self, name, fn, span=True, before=None, after=None):
        """Return fn wrapped as layer ``name`` (a string, or a callable of
        the call's arguments giving one).  ``span=False`` makes it a hot
        counter: calls and inclusive time only, no span, no frame."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls

        if not span:
            def counted(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self_s[name] = self_s.get(name, 0.0) + (clock() - start)
                    calls[name] = calls.get(name, 0) + 1
                if after is not None:
                    after(args, kwargs, result)
                return result

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            enter = clock()
            label = name if isinstance(name, str) else name(args, kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1][0] if stack else None])
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[label] = self_s.get(label, 0.0) + (end - start) - frame[1]
                calls[label] = calls.get(label, 0) + 1
                spans[idx][1] = start
                spans[idx][2] = end
                if stack:
                    stack[-1][1] += clock() - enter
            if after is not None:
                t = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a top-level traced layer."""
        return self.wrap(name, fn)(*args)

    # -- installation ----------------------------------------------------------

    def _patch(self, module_name, attr, layer, **opts):
        """Wrap ``module.attr`` or ``module.Class.method`` wherever it is
        looked up; False when the target does not exist."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = owner.__dict__.get(method) if isinstance(owner, type) else None
            if original is None:
                return False
            setattr(owner, method, self.wrap(layer, original, **opts))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = self.wrap(layer, original, **opts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cubix" or mod_name.startswith("cubix.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
        return True

    def install(self):
        """Wrap every traced target; return self."""
        for module_name, attr, layer, opts in self._targets():
            target = f"{module_name}.{attr}"
            feeds = opts.pop("feeds", (layer,))
            if self._patch(module_name, attr, layer, **opts):
                self.installed.add(target)
                self.layers.update(feeds)
            else:
                self.absent.append(target)
        return self

    def _targets(self):
        """(module, attribute, layer, wrapper options); a layer given as a
        callable names in ``feeds`` the layers it can return."""
        c = self.counters

        def act_after(args, kwargs, result):
            module, perm = args[0], args[1]
            seen = self._acted.setdefault(id(module), (module, set()))[1]
            if perm.images not in seen:
                seen.add(perm.images)
                c["modules.act_distinct"] += 1

        def degree_after(args, kwargs, deg):
            if deg not in self._degrees:
                self._degrees.add(deg)
                c["cubical.dim_total"] += deg.dim

        def assembly_after(args, kwargs, mat):
            c["cubical.nnz_total"] += mat.nnz()

        def rank_before(args, kwargs):
            c["linalg.max_bits"] = max(c["linalg.max_bits"], _max_bits(args[0]))

        def rank_after(args, kwargs, r):
            c["linalg.rank_total"] += r

        def euler_after(args, kwargs, result):
            c["harrison.euler_terms"] += factorial(args[1])

        def harrison_after(args, kwargs, cx):
            c["harrison.dim_total"] += sum(cx.dims.values())

        def complex_layer(args, kwargs):
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "orbit")
            return "cubical.naive" if mode == "naive" else "cubical.complex"

        def suite_layer(args, kwargs):
            return f"suites.{args[0][0]}"

        hot = {"span": False}
        return (
            ("cubix.modules", "builtin", "modules.build", {}),
            ("cubix.modules", "load_module", "modules.build", {}),
            ("cubix.modules", "random_basis_change", "modules.build", {}),
            ("cubix.modules", "induce", "modules.build", {}),
            ("cubix.modules", "restrict", "modules.build", {}),
            ("cubix.perm", "young_subgroup", "perm.young", {}),
            ("cubix.modules", "ModuleSpec.act", "modules.act", {**hot, "after": act_after}),
            ("cubix.modules", "SubgroupModule.act", "modules.act", {**hot, "after": act_after}),
            ("cubix.cubical", "cubical_complex", complex_layer,
             {"feeds": ("cubical.naive", "cubical.complex")}),
            ("cubix.cubical", "OrbitComplexBuilder.degree", "cubical.degree",
             {"after": degree_after}),
            ("cubix.cubical", "CoinvariantBasis.__init__", "cubical.coinv", {}),
            ("cubix.cubical", "OrbitComplexBuilder.differential_matrix", "cubical.assembly",
             {"after": assembly_after}),
            ("cubix.cubical", "CoinvariantBasis.class_block", "cubical.class_block", hot),
            ("cubix.linalg", "RationalMatrix.__mul__", "linalg.mul", hot),
            ("cubix.linalg", "rank", "linalg.rank", {"before": rank_before, "after": rank_after}),
            ("cubix.linalg", "image_basis", "linalg.image_basis", {}),
            ("cubix.linalg", "RowSpanSolver.__init__", "linalg.rowspan", {}),
            ("cubix.linalg", "RowSpanSolver.coords", "linalg.rowspan", {}),
            ("cubix.harrison", "orbit_eulerian_matrix", "harrison.euler", {"after": euler_after}),
            ("cubix.harrison", "harrison_complex", "harrison.self", {"after": harrison_after}),
            ("cubix.realizations", "direct_complex", "realizations.direct", {}),
            ("cubix.suites", "_run_spec", suite_layer,
             {"feeds": tuple(f"suites.{s}" for s in SUITES)}),
        )

    # -- results -----------------------------------------------------------------

    def report(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
            "installed": sorted(self.installed),
            "layers": sorted(self.layers),
            "absent": self.absent,
            "spans": self.spans,
        }


# -- metrics from a report --------------------------------------------------------

# metric: (layer it is measured on, how).  "self" is the layer's self time,
# "calls" its call count, "counter" the counter of the same name.
LAYER_METRICS = {
    "cli.self_s": ("cli.main", "self"),
    "modules.build_s": ("modules.build", "self"),
    "perm.young_s": ("perm.young", "self"),
    "modules.act_calls": ("modules.act", "calls"),
    "modules.act_reuse": ("modules.act", "reuse"),
    "cubical.degree_s": ("cubical.degree", "self"),
    "cubical.coinv_s": ("cubical.coinv", "self"),
    "cubical.coinv_builds": ("cubical.coinv", "calls"),
    "cubical.dim_total": ("cubical.degree", "counter"),
    "cubical.assembly_s": ("cubical.assembly", "self"),
    "cubical.class_block_calls": ("cubical.class_block", "calls"),
    "cubical.class_block_s": ("cubical.class_block", "self"),
    "cubical.nnz_total": ("cubical.assembly", "counter"),
    "cubical.naive_s": ("cubical.naive", "self"),
    "linalg.mul_calls": ("linalg.mul", "calls"),
    "linalg.mul_s": ("linalg.mul", "self"),
    "linalg.rank_s": ("linalg.rank", "self"),
    "linalg.rank_total": ("linalg.rank", "counter"),
    "linalg.max_bits": ("linalg.rank", "counter"),
    "linalg.image_basis_s": ("linalg.image_basis", "self"),
    "linalg.rowspan_s": ("linalg.rowspan", "self"),
    "harrison.euler_s": ("harrison.euler", "self"),
    "harrison.euler_terms": ("harrison.euler", "counter"),
    "harrison.self_s": ("harrison.self", "self"),
    "harrison.dim_total": ("harrison.self", "counter"),
    "realizations.direct_s": ("realizations.direct", "self"),
    **{f"suites.{s}_s": (f"suites.{s}", "self") for s in SUITES},
}


def layer_metrics(report) -> dict:
    """Per-layer metric values; a metric whose layer was never installed
    (its traced name is gone) is left out."""
    layers = set(report["layers"])
    self_s, calls, counters = report["self_s"], report["calls"], report["counters"]
    out = {}
    for metric, (layer, how) in LAYER_METRICS.items():
        if layer not in layers:
            continue
        if how == "self":
            out[metric] = self_s.get(layer, 0.0)
        elif how == "calls":
            out[metric] = calls.get(layer, 0)
        elif how == "reuse":
            n = calls.get(layer, 0)
            out[metric] = 1 - counters["modules.act_distinct"] / n if n else 0.0
        else:
            out[metric] = counters[metric]
    return out


def stages(spans) -> dict:
    """Inclusive seconds per span name, over spans with no ancestor of the
    same name, so nested calls of a layer are not counted twice."""
    out = {}
    for name, start, end, parent in spans:
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            out[name] = out.get(name, 0.0) + (end - start)
    return out
