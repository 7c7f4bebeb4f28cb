"""Span tracing around the calls into each layer of ``noisycluster``.

A ``Tracer`` replaces module attributes with timing wrappers while it is
installed and puts the originals back on exit. Each wrapper records one
span (name, start, end, parent span) in memory and adds the call to a
per-name count and self time: the span's duration minus what its child
spans cover. The spans are written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.amplitude_bytes = 0
        self.csv_bytes = 0  # CSV text the CLI wrote, counted by the caller
        self.child_cpu_s = 0.0  # CPU of waited-for children, added by the caller
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, child_s = self.spans, self._stack, self._child_s
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child_s.pop()
                d = t1 - t0
                if child_s:
                    child_s[-1] += d
                calls[name] += 1
                self_s[name] += d - inner
                incl_s[name] += d
                spans[idx] = (name_id, t0, t1, parent)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr``, the name a caller looks up, as span ``name``."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def count_amplitudes(self, state_cls) -> None:
        """Add 16 * 2^n bytes per state construction (computed, not measured)."""
        original = state_cls.__dict__["__post_init__"]

        def post_init(state):
            self.amplitude_bytes += 16 << state.num_qubits
            return original(state)

        self._patched.append((state_cls, "__post_init__", original))
        setattr(state_cls, "__post_init__", post_init)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Start new counts and times; the spans recorded so far are kept."""
        self.calls.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.amplitude_bytes = 0
        self.csv_bytes = 0
        self.child_cpu_s = 0.0

    def write(self, path: str) -> None:
        """Tab-separated spans: index, name, start and end in us, parent index."""
        base = self.spans[0][1] if self.spans else 0.0
        lines = ["span\tname\tstart_us\tend_us\tparent"]
        for i, (name_id, t0, t1, parent) in enumerate(self.spans):
            lines.append(
                f"{i}\t{self.names[name_id]}\t{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\t{parent}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package where its callers look it up."""
    from noisycluster import cli, clusters, entanglement, oneway, phasenoise, states

    # class-level constructors and methods: one patch covers every caller
    tracer.count_amplitudes(states.PureState)
    tracer.patch(states.PureState, "__post_init__", "states.PureState")
    tracer.patch(states.DensityMatrix, "__post_init__", "states.DensityMatrix")
    tracer.patch(phasenoise.PhaseDistribution, "sample", "phasenoise.PhaseDistribution.sample")
    tracer.patch(cli.ResultTable, "write", "cli.ResultTable.write")
    # module functions, patched in each calling module
    for owner, attr, name in (
        (clusters, "init_register", "states.init_register"),
        (clusters, "apply_cphase", "states.apply_cphase"),
        (clusters, "apply_local", "states.apply_local"),
        (oneway, "apply_local", "states.apply_local"),
        (clusters, "measure", "states.measure"),
        (oneway, "measure", "states.measure"),
        (oneway, "build_cluster", "clusters.build_cluster"),
        (oneway, "derive_local_correction", "clusters.derive_local_correction"),
        (oneway, "gate_fidelity_mc", "oneway.gate_fidelity_mc"),
        (oneway, "gate_fidelity_once", "oneway.gate_fidelity_once"),
        (oneway, "wire_fidelity_mc", "oneway.wire_fidelity_mc"),
        (oneway, "run_gate", "oneway.run_gate"),
        (oneway, "wire_transfer", "oneway.wire_transfer"),
        (cli, "overlap_avg", "phasenoise.overlap_avg"),
        (cli, "dephasing_fidelity", "phasenoise.dephasing_fidelity"),
        (cli, "pair_scan", "entanglement.pair_scan"),
        (entanglement, "averaged_pair_state", "entanglement.averaged_pair_state"),
        (entanglement, "concurrence", "entanglement.concurrence"),
        (entanglement, "ppt_min_eigenvalue", "entanglement.ppt_min_eigenvalue"),
        (cli, "main", "cli.main"),
        (cli, "run_experiment", "cli.run_experiment"),
    ):
        tracer.patch(owner, attr, name)
