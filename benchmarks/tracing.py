"""Span and counter wrappers installed from outside the package.

Each wrapped function is replaced wherever a ``bslim`` module binds it
(the defining module, every module that imported it by name, and the
package namespace), so calls between modules and calls from the
benchmark both pass through the wrapper.  A span records
``[id, parent id, name, start ns, end ns, note]``; spans stay in memory
until the run ends.  Per-letter hot paths get count-only wrappers.
Targets missing from the package under test are skipped, and their
metrics read zero.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("madic", "lattice", "group", "intsolve", "bsclassic", "markedspace", "morphisms", "cli")

# (defining module, function): wrapped at every binding
SPAN_TARGETS = {
    "madic": ("xi_from_prefix", "r_digits"),
    "lattice": ("a_conjugate", "fixed_interval", "q_poly", "phi_apply", "parse_evec"),
    "group": ("parse_word", "format_word", "is_trivial", "britton_reduce", "normal_form",
              "cyclic_reduce", "base_conjugacy_solve", "are_conjugate"),
    "intsolve": ("solve_integer_system",),
    "bsclassic": ("bs_is_trivial", "bs_n_of_k", "parse_bs_word"),
    "markedspace": ("shortest_distinguishing", "distance_bounds", "isomorphic",
                    "recover_parameters", "relator"),
    "morphisms": ("wreath_image", "apply_automorphism"),
    "cli": ("main", "build_parser"),
}


def _bits(x: int) -> int:
    return abs(x).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [0]
        self._next = 1
        self._undo: list[tuple[object, str, object]] = []
        self.digit_reads = 0
        self.stream_depth: dict[object, int] = {}
        self.pinches = 0
        self.oracle_calls = 0

    # --- spans ---------------------------------------------------------------

    def span(self, name: str, fn, note=None):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            rec = [sid, stack[-1], name, clock(), 0, None]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[5] = note(args, out)
                return out
            finally:
                rec[4] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def query(self, qid: str):
        """Context for one query: the root span its library spans share."""
        return _QuerySpan(self, qid)

    # --- installation ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bslim" or mod_name.startswith("bslim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        notes = {
            "group.base_conjugacy_solve": lambda args, out: out is not None,
            "intsolve.solve_integer_system": _solver_note,
            "markedspace.shortest_distinguishing": lambda args, out: out[0] if out else args[2],
        }
        for layer, names in SPAN_TARGETS.items():
            mod = sys.modules.get(f"bslim.{layer}")
            for fn_name in names:
                original = getattr(mod, fn_name, None)
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                self._replace_everywhere(original, self.span(name, original, notes.get(name)))
        self._install_counters()

    def _install_counters(self) -> None:
        madic = sys.modules["bslim.madic"]
        stream = getattr(madic, "RDigitStream", None)
        digit = getattr(stream, "digit", None)
        if digit is not None:
            depth = self.stream_depth

            def counted_digit(obj, i):
                self.digit_reads += 1
                if i > depth.get(obj, 0):
                    depth[obj] = i
                return digit(obj, i)

            self._undo.append((stream, "digit", digit))
            stream.digit = counted_digit

        group = sys.modules["bslim.group"]
        reduce_alt = getattr(group, "_reduce_alt", None)
        if reduce_alt is not None:

            def counted_reduce(ctx, segs, deltas):
                before = len(deltas)
                try:
                    return reduce_alt(ctx, segs, deltas)
                finally:
                    self.pinches += (before - len(deltas)) // 2

            self._replace_everywhere(reduce_alt, counted_reduce)

        cli = sys.modules.get("bslim.cli")
        oracle = getattr(cli, "word_problem_oracle", None)
        if oracle is not None:

            def counting_oracle(spec):
                inner = oracle(spec)

                def ask(w):
                    self.oracle_calls += 1
                    return inner(w)

                return ask

            self._undo.append((cli, "word_problem_oracle", oracle))
            cli.word_problem_oracle = counting_oracle

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # --- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        by_id = {rec[0]: rec for rec in spans}
        child_time: dict[int, int] = {}
        foreign_child_time: dict[int, int] = {}
        for sid, parent, name, start, end, _ in spans:
            if parent in by_id:
                child_time[parent] = child_time.get(parent, 0) + end - start
                if by_id[parent][2].split(".")[0] != name.split(".")[0]:
                    foreign_child_time[parent] = foreign_child_time.get(parent, 0) + end - start

        def outer(*names: str) -> float:
            """Seconds inside any of the named spans, nested ones counted once."""
            wanted = set(names)
            inside: dict[int, bool] = {0: False}
            total = 0
            for sid, parent, name, start, end, _ in spans:
                hit = name in wanted
                above = inside.get(parent, False)
                inside[sid] = above or hit
                if hit and not above:
                    total += end - start
            return total / 1e9

        def named(name: str) -> list[list]:
            return [rec for rec in spans if rec[2] == name]

        out: dict[str, float] = {}
        self_time = {layer: 0 for layer in LAYERS}
        for sid, parent, name, start, end, _ in spans:
            layer = name.split(".")[0]
            if layer in self_time:
                self_time[layer] += end - start - child_time.get(sid, 0)

        out["madic.digit_reads"] = self.digit_reads
        out["madic.depth"] = max(self.stream_depth.values(), default=0)
        out["madic.xi_from_prefix_s"] = outer("madic.xi_from_prefix")
        out["lattice.kernel_s"] = outer("lattice.a_conjugate", "lattice.fixed_interval",
                                        "lattice.q_poly", "lattice.phi_apply")
        out["group.parse_s"] = outer("group.parse_word")
        out["group.reduce_s"] = outer("group.is_trivial", "group.britton_reduce")
        out["group.pinches"] = self.pinches
        out["group.normal_form_s"] = outer("group.normal_form")
        out["group.cyclic_reduce_s"] = outer("group.cyclic_reduce")
        solves = named("group.base_conjugacy_solve")
        out["group.base_solve_s"] = outer("group.base_conjugacy_solve")
        out["group.base_solve_calls"] = len(solves)
        out["group.base_solve_hit_frac"] = _frac(sum(1 for rec in solves if rec[5]), len(solves))
        out["group.witness_check_s"] = sum(
            rec[4] - rec[3] for rec in named("group.is_trivial")
            if by_id.get(rec[1], [None] * 3)[2] == "group.are_conjugate"
        ) / 1e9
        systems = [rec for rec in named("intsolve.solve_integer_system") if rec[5]]
        out["intsolve.solve_s"] = outer("intsolve.solve_integer_system")
        out["intsolve.calls"] = len(named("intsolve.solve_integer_system"))
        for key, idx in (("rows_max", 0), ("cols_max", 1), ("coef_bits_max", 2)):
            out[f"intsolve.{key}"] = max((rec[5][idx] for rec in systems), default=0)
        out["intsolve.solved_frac"] = _frac(sum(1 for rec in systems if rec[5][3]),
                                            out["intsolve.calls"])
        dists = named("markedspace.shortest_distinguishing")
        out["markedspace.dist_s"] = outer("markedspace.shortest_distinguishing")
        frontier, first = 0, 0
        for rec in dists:
            reached = rec[5] if rec[5] is not None else 0
            if reached > frontier:
                frontier, first = reached, first + rec[4] - rec[3]
        out["markedspace.dist_first_s"] = first / 1e9
        out["markedspace.recover_s"] = outer("markedspace.recover_parameters")
        out["markedspace.oracle_calls"] = self.oracle_calls
        out["bsclassic.bswp_s"] = sum(
            rec[4] - rec[3] for rec in spans
            if rec[2] in ("bsclassic.bs_is_trivial", "bsclassic.bs_n_of_k")
            and by_id.get(rec[1], [None] * 3)[2] == "cli.main"
        ) / 1e9
        out["morphisms.wreath_s"] = outer("morphisms.wreath_image", "morphisms.apply_automorphism")
        mains = named("cli.main")
        out["cli.calls"] = len(mains)
        out["cli.build_parser_s"] = outer("cli.build_parser")
        out["cli.self_s"] = sum(
            rec[4] - rec[3] - foreign_child_time.get(rec[0], 0) for rec in mains
        ) / 1e9
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = self_time[layer] / 1e9
        return out


class _QuerySpan:
    def __init__(self, tracer: Tracer, qid: str):
        self.tracer, self.qid = tracer, qid

    def __enter__(self):
        t = self.tracer
        self.rec = [t._next, 0, "query", time.perf_counter_ns(), 0, self.qid]
        t._next += 1
        t.spans.append(self.rec)
        t._stack[:] = [0, self.rec[0]]
        return self

    def __exit__(self, *exc):
        self.rec[4] = time.perf_counter_ns()
        self.tracer._stack[:] = [0]
        return False


def _solver_note(args, out):
    rows, rhs = args[0], args[1]
    bits = max((_bits(x) for row in rows for x in row), default=0)
    bits = max([bits, *(_bits(x) for x in rhs), *(_bits(x) for x in out or ())])
    return len(rows), len(rows[0]) if rows else 0, bits, out is not None


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0
