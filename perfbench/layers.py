"""Which bbsolve calls belong to which layer, and the metrics made from them.

Every wrapper is installed by patching a module attribute or a class method
at the place the caller looks it up (``bench.run_bbs``, not
``engine.run_bbs``), and is removed again by :meth:`tracing.Patches.restore`.
Nothing under ``src/`` changes.
"""

from dataclasses import replace

from bbsolve import _evolve_kernels, bench, engine

PER_LAYER_UNITS = {
    "prefix.s": "s",
    "shift.s": "s",
    "fock.coupler_applies": "count",
    "fock.block_builds": "count",
    "fock.blocks_s": "s",
    "fock.apply_s": "s",
    "fock.amp_bytes_computed": "bytes",
    "sample.cdf_rows": "count",
    "sample.cdf_s": "s",
    "sample.seq_rows": "count",
    "sample.seq_s": "s",
    "sample.perms_computed": "count",
    "sample.unitary_calls": "count",
    "sample.unitary_s": "s",
    "cost.batch_rows": "count",
    "cost.batch_s": "s",
    "cost.us_per_row": "us",
    "cost.scalar_calls": "count",
    "cost.scalar_s": "s",
    "cost.us_per_call": "us",
    "baselines.sa_s": "s",
    "baselines.hc_s": "s",
    "baselines.self_s": "s",
    "ledger.calls": "count",
    "ledger.unique_frac": "frac",
    "ledger.self_s": "s",
    "flip.calls": "count",
    "flip.s": "s",
    "sgd.s": "s",
    "engine.self_s": "s",
    "bench.oracle_s": "s",
    "bench.self_s": "s",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_frac": "frac",
}


class StepClock:
    """Time per solver step, from one timestamp per step.

    A step is one SGD update of a training run (from the run's start or the
    previous ``engine.sgd_update`` to the end of this one). Without training
    runs, a step is a rep's baseline searches together (``simulated_anneal``
    and ``hill_climb`` on every problem of the rep): single searches differ
    by problem, so their median would sit between problem clusters.
    Timestamps come from a :class:`refclock.RefClock`, which may calibrate
    between steps and between ledger batches.
    """

    def __init__(self, clock):
        self.clock = clock
        self.steps = []
        self._last = None
        self._searches = 0.0
        self._first = 0

    def install(self, patches):
        patches.wrap(bench, "run_bbs", self._run)
        patches.wrap(engine, "sgd_update", self._update)
        patches.wrap(bench, "simulated_anneal", self._whole)
        patches.wrap(bench, "hill_climb", self._whole)
        patches.wrap(engine.EvalLedger, "evaluate_batch", self._ticking)

    def end_rep(self, scale):
        """Close a rep: put its steps in reference seconds with ``scale``."""
        if self._searches:
            self.steps.append(self._searches)
            self._searches = 0.0
        self.steps[self._first:] = [scale * s for s in self.steps[self._first:]]
        self._first = len(self.steps)

    def _run(self, fn):
        def wrapper(*args, **kwargs):
            self._last = self.clock.now()
            return fn(*args, **kwargs)

        return wrapper

    def _update(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            now = self.clock.now()
            self.steps.append(now - self._last)
            self._last = now
            self.clock.tick()
            return out

        return wrapper

    def _whole(self, fn):
        def wrapper(*args, **kwargs):
            start = self.clock.now()
            out = fn(*args, **kwargs)
            self._searches += self.clock.now() - start
            self.clock.tick()
            return out

        return wrapper

    def _ticking(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.clock.tick()
            return out

        return wrapper


def install(tracer, patches):
    """Wrap every layer boundary of a run_suite call in a span."""
    ledgers = {}

    def span(name, on_exit=None):
        return lambda fn: tracer.span(name, fn, on_exit)

    def cdf_rows(args):
        tracer.add("sample.cdf_rows", args[3])

    def seq_rows(args):
        photons = int(sum(args[1]))
        tracer.add("sample.seq_rows", args[3])
        # photon k of a sample (k = 2..n) needs k Ryser minors of size k - 1
        tracer.add("sample.perms_computed", args[3] * (photons * (photons + 1) // 2 - 1))

    def amp_bytes(args):
        tracer.add("fock.amp_bytes", args[0].nbytes)

    def ledger_rows(args):
        ledgers[id(args[0])] = args[0]
        tracer.add("ledger.rows", len(args[1]))

    def batch_rows(args):
        tracer.add("cost.batch_rows", len(args[0]))

    def traced_handle(make_handle):
        def wrapper(*args, **kwargs):
            handle = make_handle(*args, **kwargs)
            counted = tracer.span("cost.batch", handle.eval_batch, batch_rows)
            plain = handle.eval_batch

            def eval_batch(bits_mat):
                # rows the brute-force oracle costs stay in bench.oracle_s
                if tracer.innermost() == "bench.oracle":
                    return plain(bits_mat)
                return counted(bits_mat)

            return replace(handle, eval=tracer.leaf("cost.scalar", handle.eval), eval_batch=eval_batch)

        return wrapper

    patches.wrap(bench, "run_suite", span("bench.run_suite"))
    patches.wrap(bench, "brute_force", span("bench.oracle"))
    patches.wrap(bench, "make_handle", traced_handle)
    patches.wrap(bench, "run_bbs", span("engine.run"))
    patches.wrap(bench, "simulated_anneal", span("baselines.sa"))
    patches.wrap(bench, "hill_climb", span("baselines.hc"))
    patches.wrap(engine._TileRuntime, "set_thetas", span("prefix"))
    patches.wrap(engine._TileRuntime, "shifted_cdf", span("shift"))
    patches.wrap(engine._TileRuntime, "_draw_from_cdf", span("sample.cdf", cdf_rows))
    patches.wrap(engine, "apply_coupler", span("fock.apply", amp_bytes))
    patches.wrap(_evolve_kernels, "make_blocks", span("fock.blocks"))
    patches.wrap(engine, "sample_occupations_sequential", span("sample.seq", seq_rows))
    patches.wrap(engine, "circuit_unitary", span("sample.unitary"))
    patches.wrap(engine.EvalLedger, "evaluate_batch", span("ledger", ledger_rows))
    patches.wrap(engine._RunState, "_flip", span("flip"))
    patches.wrap(engine, "sgd_update", span("sgd"))
    return ledgers


def metrics(tracer, ledgers, reps, scale):
    """Per-layer metrics of the traced reps, per rep; ``scale`` turns wall
    seconds into reference seconds."""
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / reps

    def total_s(name):
        return scale * totals.get(name, (0, 0.0, 0.0))[1] / reps

    def self_s(name):
        return scale * totals.get(name, (0, 0.0, 0.0))[2] / reps

    def count(name):
        return tracer.counts.get(name, 0) / reps

    def per_item_us(seconds, items):
        return 1e6 * seconds / items if items else 0.0

    scalar_calls, scalar_s = tracer.leaf_totals.get("cost.scalar", (0, 0.0))
    scalar_s *= scale
    ledger_calls = sum(l.call_count for l in ledgers.values())
    ledger_unique = sum(l.unique_count for l in ledgers.values())
    return {
        "prefix.s": self_s("prefix"),
        "shift.s": self_s("shift"),
        "fock.coupler_applies": calls("fock.apply"),
        "fock.block_builds": calls("fock.blocks"),
        "fock.blocks_s": self_s("fock.blocks"),
        "fock.apply_s": self_s("fock.apply"),
        "fock.amp_bytes_computed": count("fock.amp_bytes"),
        "sample.cdf_rows": count("sample.cdf_rows"),
        "sample.cdf_s": self_s("sample.cdf"),
        "sample.seq_rows": count("sample.seq_rows"),
        "sample.seq_s": self_s("sample.seq"),
        "sample.perms_computed": count("sample.perms_computed"),
        "sample.unitary_calls": calls("sample.unitary"),
        "sample.unitary_s": self_s("sample.unitary"),
        "cost.batch_rows": count("cost.batch_rows"),
        "cost.batch_s": self_s("cost.batch"),
        "cost.us_per_row": per_item_us(self_s("cost.batch"), count("cost.batch_rows")),
        "cost.scalar_calls": scalar_calls / reps,
        "cost.scalar_s": scalar_s / reps,
        "cost.us_per_call": per_item_us(scalar_s, scalar_calls),
        "baselines.sa_s": total_s("baselines.sa"),
        "baselines.hc_s": total_s("baselines.hc"),
        "baselines.self_s": self_s("baselines.sa") + self_s("baselines.hc"),
        "ledger.calls": count("ledger.rows"),
        "ledger.unique_frac": ledger_unique / ledger_calls if ledger_calls else 0.0,
        "ledger.self_s": self_s("ledger"),
        "flip.calls": calls("flip"),
        "flip.s": self_s("flip"),
        "sgd.s": self_s("sgd"),
        "engine.self_s": self_s("engine.run"),
        "bench.oracle_s": self_s("bench.oracle"),
        "bench.self_s": self_s("bench.run_suite"),
    }
