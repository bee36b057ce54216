"""Traced in-process run of one workload, started by run.py in a fresh
interpreter with the checkout's `src` on PYTHONPATH.

    python3 bench/traced.py pipeline|probe WORKLOAD_JSON SPANS

`pipeline` repeats what the workload's CLI command does, call for call,
with a span around each call into a pauliblocks public function, and
writes the emitted text to stdout so it is checked like the CLI's. Its
process wall time, set against the CLI's, gives the tracing overhead.

`probe` splits up the calls that the pipeline makes as one (a whole sweep,
a whole scaling study) into the per-layer calls behind them, and adds what
the CLI does not do on its own: the score recomputation, the pairwise
commutation kernel over the grouping, and the same analysis call at the
CLI's other `--jobs` setting.

Spans are kept in memory and written once, as JSON, when the run ends.
pauliblocks is imported inside the first span, so no module is imported
here that the CLI would not import itself.
"""

import itertools
import os
import sys
import time

# Intra-group pairs tested per probe; bounds the probe's run time on large
# groupings.
MAX_PAIR_TESTS = 200_000


class Tracer:
    """Spans as [name, start, end, parent index, counts] in call order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name, **counts):
        return _Span(self, name, counts)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.record = [name, 0.0, 0.0, parent, counts]

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self.record[4]

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()
        return False


def random_factory(n, seed, w):
    """`kstar random`'s instance factory; module level so workers unpickle it."""
    from pauliblocks import random_hamiltonian

    return random_hamiltonian(n, w, seed)


def _rows_csv(rows):
    import csv
    import io

    dicts = [r.to_json_dict() for r in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(dicts[0].keys()))
    writer.writeheader()
    writer.writerows(dicts)
    return buf.getvalue()


def _emit(tr, make_text):
    with tr.span("cli.emit") as c:
        text = make_text()
        sys.stdout.write(text)
        sys.stdout.flush()
        c["bytes"] = len(text.encode())


def _load(tr, pb, wl):
    with tr.span("hamiltonians.load_hamiltonian") as c:
        h = pb.load_hamiltonian(wl["input"])
        c["terms"] = h.num_terms
    return h


def _group(tr, pb, h, k):
    with tr.span("grouping.sorted_insertion") as c:
        g = pb.sorted_insertion(h, pb.BlockSpec.uniform(k, h.n_qubits))
        c["groups"] = g.num_groups
    return g


def _kstar_factory(wl):
    import functools

    return functools.partial(random_factory, w=wl["w"])


def pipeline(tr, wl_json):
    with tr.span("cli.import"):
        import pauliblocks.cli  # noqa: F401  (what `python -m pauliblocks` loads)
        import pauliblocks as pb
    import json  # already loaded by pauliblocks.cli

    wl = json.loads(wl_json)
    command = wl["command"]
    if command == "group":
        h = _load(tr, pb, wl)
        g = _group(tr, pb, h, wl["k"])
        _emit(tr, lambda: json.dumps(g.to_json_dict(), indent=2) + "\n")
    elif command == "sweep":
        h = _load(tr, pb, wl)
        ks = range(1, h.n_qubits + 1)
        with tr.span("analysis.k_sweep", jobs=1, entry="serial", cells=len(ks)):
            rows = pb.k_sweep(h, ks, jobs=1)
        _emit(tr, lambda: _rows_csv(rows))
    elif command == "diag":
        h = _load(tr, pb, wl)
        g = _group(tr, pb, h, wl["k"])
        blocks = g.blocks
        paulis = h.paulis()
        members = [paulis[i] for i in g.groups[0]]
        with tr.span("clifford.diagonalize_group", members=len(members)) as c:
            circuit = pb.diagonalize_group(members, blocks)
            c["gates"] = circuit.gate_count
        with tr.span("clifford.Tableau.from_circuit"):
            tableau = pb.Tableau.from_circuit(circuit)
        with tr.span("clifford.is_symplectic"):
            if not tableau.is_symplectic():
                raise RuntimeError("tableau is not symplectic")
        with tr.span("clifford.verify"):
            for p in members:
                if not pb.is_diagonal(tableau.apply(p)) or not pb.is_diagonal(
                    pb.conjugate(circuit, p)
                ):
                    raise RuntimeError(f"{p} is not diagonalized")
        with tr.span("clifford.split") as c:
            pb.per_block_circuits(circuit, blocks)
            c["depth"] = pb.circuit_depth(circuit)
        _emit(tr, lambda: pb.circuit_to_text(circuit))
    elif command == "kstar":
        seeds = range(wl["seed"], wl["seed"] + wl["seeds"])
        jobs = os.cpu_count() or 1
        cells = len(wl["sizes"]) * len(seeds)
        with tr.span(
            "analysis.k_star_scaling", jobs=jobs, entry="default_jobs", cells=cells
        ):
            rows = pb.k_star_scaling(
                _kstar_factory(wl), wl["sizes"], seeds=seeds, jobs=jobs
            )
        _emit(tr, lambda: _rows_csv(rows))
    else:
        raise ValueError(f"unknown command {command!r}")


def _intra_group_pairs(found):
    for h, groupings in found:
        paulis = h.paulis()
        for g in groupings:
            for group in g.groups:
                for a in range(len(group)):
                    for b in range(a + 1, len(group)):
                        yield paulis[group[a]], paulis[group[b]], g.blocks


def _pair_tests(tr, pb, found):
    """k_commutes over intra-group pairs, at most MAX_PAIR_TESTS of them."""
    pairs = 0
    with tr.span("paulis.k_commutes") as c:
        for p, q, blocks in itertools.islice(_intra_group_pairs(found), MAX_PAIR_TESTS):
            if not pb.k_commutes(p, q, blocks):
                raise RuntimeError("grouping has a non-commuting pair")
            pairs += 1
        c["pairs"] = pairs


def _score(tr, pb, h, groupings):
    for g in groupings:
        with tr.span("grouping.r_hat"):
            pb.r_hat(h, g)


def probe(tr, wl_json):
    import json

    import pauliblocks as pb

    wl = json.loads(wl_json)
    command = wl["command"]
    jobs = os.cpu_count() or 1
    if command in ("group", "diag"):
        # the pipeline's span already times this grouping
        h = pb.load_hamiltonian(wl["input"])
        found = [(h, [pb.sorted_insertion(h, pb.BlockSpec.uniform(wl["k"], h.n_qubits))])]
    elif command == "sweep":
        h = pb.load_hamiltonian(wl["input"])
        ks = range(1, h.n_qubits + 1)
        with tr.span(
            "analysis.k_sweep", jobs=jobs, entry="default_jobs", cells=len(ks)
        ):
            pb.k_sweep(h, ks, jobs=jobs)
        found = [(h, [_group(tr, pb, h, k) for k in ks])]
    elif command == "kstar":
        seeds = range(wl["seed"], wl["seed"] + wl["seeds"])
        cells = len(wl["sizes"]) * len(seeds)
        with tr.span("analysis.k_star_scaling", jobs=1, entry="serial", cells=cells):
            pb.k_star_scaling(_kstar_factory(wl), wl["sizes"], seeds=seeds, jobs=1)
        found = []
        for n in wl["sizes"]:
            for seed in seeds:
                with tr.span("hamiltonians.random_hamiltonian") as c:
                    h = pb.random_hamiltonian(n, wl["w"], seed)
                    c["terms"] = h.num_terms
                with tr.span("analysis.k_sweep", jobs=1):
                    pb.k_sweep(h, range(1, n + 1))
                found.append((h, [_group(tr, pb, h, k) for k in range(1, n + 1)]))
    else:
        raise ValueError(f"unknown command {command!r}")
    for h, groupings in found:
        _score(tr, pb, h, groupings)
    _pair_tests(tr, pb, found)


def main(argv):
    mode, wl_json, spans_path = argv
    tr = Tracer()
    with tr.span(mode):
        if mode == "pipeline":
            pipeline(tr, wl_json)
        elif mode == "probe":
            probe(tr, wl_json)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    import json

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tr.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
