"""Per-layer tracing installed from outside the program.

Wrappers are set as attributes on every module that binds a traced name
(``hutch.probes`` and ``hutch.cli`` import ``hutchinson_step``, ``hausdorff``
and ``gap_radius`` by name, so patching only the defining module would miss
their calls) and on the ``PLHomeo`` class.  No file under ``src/`` changes.

Spans are kept in memory and written once, when the run ends.  The two hot
leaves, ``PLHomeo.image_segment`` and ``PLHomeo.__call__``, are aggregated
at their boundary (call count and time) instead of being kept one span per
call, which would cost hundreds of megabytes on the exact workload.

A span's self time is its duration minus the time of the traced calls made
inside it.  Bookkeeping the tracer does inside a span (hashing a step's input
set, reading denominator sizes) is timed and left out of every open span.

The tracer's own cost is measured in the traced process, not as the
difference of a traced and an untraced run: that cost is ~1-2 % of a run,
well below the drift of wall time between two runs on a shared host.  It is
the timed bookkeeping plus, for each wrapper kind, its call count times its
per-call cost around a no-op, timed in the same process.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder.  ``install`` patches the program; ``uninstall`` puts
    every original back."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        # Open frames: [child time, span id, bookkeeping time at entry].
        self.stack: list[list] = [[0.0, 0, 0.0]]
        self.bookkeeping = 0.0
        self.origin = perf_counter()
        self.counts = {
            "segments": 0,
            "arcs_out": 0,
            "arcs_out_max": 0,
            "repeats": 0,
            "coarsened": 0,
            "normalize_segments": 0,
            "hausdorff_arcs": 0,
            "endpoint_bits_max": 0,
            "covering_steps": 0,
            "orbit_points": 0,
        }
        self.round_s = 0.0
        self._open_covering = 0
        self._seen_inputs: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def span(self, name: str, fn, after=None):
        """Wrap fn in a recorded span; after(result, args) runs as
        bookkeeping once the span has closed."""
        st = self._stat(name)
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            frame = [0.0, len(spans) + 1, self.bookkeeping]
            parent = stack[-1]
            spans.append(None)  # reserve the id in call order
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = (t1 - t0) - (self.bookkeeping - frame[2])
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[0]
                parent[0] += dt
                spans[frame[1] - 1] = (
                    frame[1], parent[1], name, t0 - self.origin, t1 - self.origin
                )
            if after is not None:
                b0 = perf_counter()
                after(result, args)
                self.bookkeeping += perf_counter() - b0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot method that calls nothing traced: count and time only."""
        st = self._stat(name)
        stack = self.stack

        def wrapper(obj, arg):
            t0 = perf_counter()
            result = fn(obj, arg)
            dt = perf_counter() - t0
            st.calls += 1
            st.total += dt
            stack[-1][0] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for the step layer ------------------------------------------

    def _step_input(self, args) -> None:
        """Before a step: has this exact input set been stepped already?"""
        b0 = perf_counter()
        system, a, policy = args[0], args[1], args[2]
        key = hash(
            (
                id(system),
                policy,
                tuple(
                    (p.start.value.numerator, p.start.value.denominator,
                     p.length.numerator, p.length.denominator)
                    for p in a.arcs
                ),
            )
        )
        if key in self._seen_inputs:
            self.counts["repeats"] += 1
        else:
            self._seen_inputs.add(key)
        if self._open_covering:
            self.counts["covering_steps"] += 1
        self.bookkeeping += perf_counter() - b0

    def _step_output(self, result, args) -> None:
        out, coarse = result
        n = len(out.arcs)
        c = self.counts
        c["arcs_out"] += n
        if n > c["arcs_out_max"]:
            c["arcs_out_max"] = n
        if coarse:
            c["coarsened"] += 1

    def _normalizer(self, real, produced_by_step: bool):
        """Materialise the segment iterator, then time the real normaliser.

        For the step's own binding the time spent producing segments, minus
        the generator images made meanwhile, is the endpoint rounding."""
        normalize = self.span("circle.normalize", real)
        images = self._stat("homeo.image_segment")
        counts = self.counts

        def wrapper(raw, fill_eta=None):
            image_before = images.total
            t0 = perf_counter()
            segments = list(raw)
            produced = perf_counter() - t0
            b0 = perf_counter()
            if produced_by_step:
                self.round_s += produced - (images.total - image_before)
                counts["segments"] += len(segments)
                bits = counts["endpoint_bits_max"]
                for lo, hi in segments:
                    lb = lo.denominator.bit_length()
                    hb = hi.denominator.bit_length()
                    if lb > bits:
                        bits = lb
                    if hb > bits:
                        bits = hb
                counts["endpoint_bits_max"] = bits
            counts["normalize_segments"] += len(segments)
            self.bookkeeping += perf_counter() - b0
            return normalize(segments, fill_eta)

        wrapper.__wrapped__ = real
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import hutch.circle as circle
        import hutch.cli as cli
        import hutch.ifs as ifs
        import hutch.probes as probes
        from hutch.homeo import PLHomeo

        real_step = ifs.hutchinson_step
        stepped = self.span("ifs.hutchinson_step", real_step, after=self._step_output)

        def step(*args):
            self._step_input(args)
            return stepped(*args)

        step.__wrapped__ = real_step
        for mod in (ifs, probes):
            self._patch(mod, "hutchinson_step", step)

        self._patch(ifs, "_normalize_segments_flagged",
                    self._normalizer(circle._normalize_segments_flagged, True))
        self._patch(circle, "_normalize_segments_flagged",
                    self._normalizer(circle._normalize_segments_flagged, False))

        def count_arcs(result, args):
            self.counts["hausdorff_arcs"] += len(args[0].arcs) + len(args[1].arcs)

        hausdorff = self.span("circle.hausdorff", circle.hausdorff, after=count_arcs)
        for mod in (ifs, probes):
            self._patch(mod, "hausdorff", hausdorff)

        gap_radius = self.span("circle.gap_radius", circle.gap_radius)
        for mod in (ifs, probes, cli):
            self._patch(mod, "gap_radius", gap_radius)

        covering = self.span("probes.covering_time", probes.covering_time)

        def covering_time(*args, **kwargs):
            self._open_covering += 1
            try:
                return covering(*args, **kwargs)
            finally:
                self._open_covering -= 1

        covering_time.__wrapped__ = probes.covering_time
        for mod in (probes, cli):
            self._patch(mod, "covering_time", covering_time)

        for mod, name in (
            (probes, "sensitivity_probe"),
            (probes, "equicontinuity_probe"),
            (ifs, "attractor_probe"),
        ):
            wrapped = self.span(f"{mod.__name__[6:]}.{name}", getattr(mod, name))
            for binder in (mod, cli):
                self._patch(binder, name, wrapped)

        calls = self._stat("homeo.call")
        orbit = self.span("ifs.orbit_density_probe", ifs.orbit_density_probe)

        def orbit_density_probe(*args, **kwargs):
            before = calls.calls
            try:
                return orbit(*args, **kwargs)
            finally:
                self.counts["orbit_points"] += calls.calls - before

        orbit_density_probe.__wrapped__ = ifs.orbit_density_probe
        for mod in (ifs, cli):
            self._patch(mod, "orbit_density_probe", orbit_density_probe)

        build = "constructions.build"
        self._patch(cli, "build_theorem1", self.span(build, cli.build_theorem1))
        self._patch(cli, "theorem2_ifs", self.span(build, cli.theorem2_ifs))
        for name in ("parse_config", "resolve_system", "run"):
            self._patch(cli, name, self.span(f"cli.{name}", getattr(cli, name)))

        self._patch(PLHomeo, "image_segment",
                    self.leaf("homeo.image_segment", PLHomeo.image_segment))
        self._patch(PLHomeo, "__call__", self.leaf("homeo.call", PLHomeo.__call__))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:  # still open: the run raised
                    continue
                sid, parent, name, start, end = span
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start_s": start, "end_s": end}) + "\n")
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps(
                    {"aggregate": name, "calls": st.calls, "total_s": st.total,
                     "self_s": st.self_time}) + "\n")

    @staticmethod
    def wrapper_costs(rounds: int = 15, calls: int = 2000) -> tuple[float, float]:
        """Per-call cost in s of a leaf and of a span wrapper: the median over
        rounds of wrapped minus bare calls of a no-op, alternated within each
        round so that drift of the machine's speed cancels."""

        class Bare:
            def noop(self, arg):
                return arg

        scratch = Tracer()
        leaf = scratch.leaf("noop", Bare.noop)
        span = scratch.span("noop", Bare.noop)
        obj = Bare()

        def per_call(fn) -> float:
            t0 = perf_counter()
            for i in range(calls):
                fn(obj, i)
            return (perf_counter() - t0) / calls

        leaf_costs, span_costs = [], []
        for _ in range(rounds):
            bare = per_call(Bare.noop)
            leaf_costs.append(per_call(leaf) - bare)
            span_costs.append(per_call(span) - bare)
        return statistics.median(leaf_costs), statistics.median(span_costs)

    def overhead_s(self) -> float:
        """Time the tracer added to the run it traced."""
        leaf_cost, span_cost = self.wrapper_costs()
        leaf_calls = span_calls = 0
        for name, st in self.stats.items():
            if name in ("homeo.image_segment", "homeo.call"):
                leaf_calls += st.calls
            else:
                span_calls += st.calls
        return self.bookkeeping + leaf_calls * leaf_cost + span_calls * span_cost

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json."""

        def s(name):
            st = self.stats.get(name)
            return st if st is not None else _Stat()

        def per(value, base, scale=1e6):
            return value / base * scale if base else 0.0

        c = self.counts
        step = s("ifs.hutchinson_step")
        image = s("homeo.image_segment")
        norm = s("circle.normalize")
        haus = s("circle.hausdorff")
        gaps = s("circle.gap_radius")
        cover = s("probes.covering_time")
        orbit = s("ifs.orbit_density_probe")
        call = s("homeo.call")
        return {
            "ifs.hutchinson_step.calls": step.calls,
            "ifs.hutchinson_step.s": step.total,
            "ifs.hutchinson_step.self_s": step.self_time,
            "ifs.hutchinson_step.segments": c["segments"],
            "ifs.hutchinson_step.us_per_segment": per(step.total, c["segments"]),
            "ifs.hutchinson_step.arcs_out": c["arcs_out"],
            "ifs.hutchinson_step.arcs_out_max": c["arcs_out_max"],
            "ifs.hutchinson_step.merge_ratio": per(c["arcs_out"], c["segments"], 1),
            "ifs.hutchinson_step.repeat_frac": per(c["repeats"], step.calls, 1),
            "ifs.hutchinson_step.coarsened_frac": per(c["coarsened"], step.calls, 1),
            "ifs.round.s": self.round_s,
            "homeo.image_segment.calls": image.calls,
            "homeo.image_segment.s": image.total,
            "homeo.image_segment.us_per_call": per(image.total, image.calls),
            "circle.normalize.s": norm.total,
            "circle.normalize.us_per_segment": per(norm.total, c["normalize_segments"]),
            "circle.hausdorff.calls": haus.calls,
            "circle.hausdorff.s": haus.total,
            "circle.hausdorff.arcs": c["hausdorff_arcs"],
            "circle.hausdorff.us_per_arc": per(haus.total, c["hausdorff_arcs"]),
            "circle.gap_radius.calls": gaps.calls,
            "circle.gap_radius.s": gaps.total,
            "circle.endpoint_bits_max": c["endpoint_bits_max"],
            "probes.covering_time.calls": cover.calls,
            "probes.covering_time.s": cover.total,
            "probes.covering_time.steps": c["covering_steps"],
            "probes.sensitivity_probe.s": s("probes.sensitivity_probe").total,
            "probes.equicontinuity_probe.s": s("probes.equicontinuity_probe").total,
            "ifs.attractor_probe.s": s("ifs.attractor_probe").total,
            "ifs.orbit_density_probe.s": orbit.total,
            "ifs.orbit_density_probe.points": c["orbit_points"],
            "ifs.orbit_density_probe.us_per_point": per(orbit.total, c["orbit_points"]),
            "homeo.call.calls": call.calls,
            "homeo.call.s": call.total,
            "cli.parse_config.s": s("cli.parse_config").total,
            "cli.resolve_system.s": s("cli.resolve_system").total,
            "constructions.build.s": s("constructions.build").total,
            "trace.overhead_s": self.overhead_s(),
        }
