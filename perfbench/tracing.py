"""In-memory spans for the traced run, and the per-layer metrics built from them.

A span is one call the benchmark makes into a layer's public function,
named "<layer>.<function>", or one call that such a function makes to
another public function through its module globals (the NESTED list).
Counters are read off each span's result (the COUNTS table).
Spans are kept in memory and written out when the run ends.

Two layers get no metric: cfcore runs in tight inner loops, where spans
would swamp what they measure (its time is self time of products and of
dimension.sector_count_check), and cache is never hit because every pass
runs without CONTINUANT_LAB_CACHE.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("orbits", "dimension", "modular", "products", "expsum", "qmc", "cli")

CLI_COMMANDS = ("dimension", "exceptions", "enumerate", "ensemble",
                "modular_closure", "modular_sseries", "qmc_zn", "qmc_disc",
                "expsum_profile", "repro_fig7")

# Public functions reached from other public functions through module
# globals, wrapped so that nested work gets a span of its own.
NESTED = (("orbits", "multiplicity_table"), ("modular", "closure_mod_q"),
          ("dimension", "discretize"), ("dimension", "leading_eigenvalue"),
          ("expsum", "integrate_band"))

# span name -> the counters its result adds to
COUNTS = {
    "orbits.multiplicity_table": lambda r: {"orbits.points": r.total},
    "orbits.enumerate_orbit": lambda r: {"orbits.points": len(r)},
    "orbits.sumset_check": lambda r: {"orbits.points": r.n_points},
    "dimension.leading_eigenvalue": lambda r: {"dimension.lam_evals": 1},
    "modular.closure_mod_q": lambda r: {"modular.closure_calls": 1},
    "products.build_omega": lambda r: {
        "products.s1_size": sum(f.stage_sizes[0] for f in r.factors),
        "products.members": sum(len(f) for f in r.factors)},
    "expsum.integrate_band": lambda r: {"expsum.bands": 1, "expsum.grid_points": r[1]},
}

# span name -> per-layer time metric its self time adds to
STAGE = {
    "orbits.enumerate_orbit": "orbits.walk_s",
    "orbits.sumset_check": "orbits.walk_s",
    "orbits.multiplicity_table": "orbits.aggregate_s",
    "orbits.hensley_exponent": "orbits.aggregate_s",
    "orbits.exceptions": "orbits.aggregate_s",
    "orbits.write_orbit_csv": "orbits.write_s",
    "orbits.write_mult_csv": "orbits.write_s",
    "dimension.dimension": "dimension.rootfind_s",
    "dimension.discretize": "dimension.discretize_s",
    "dimension.leading_eigenvalue": "dimension.eigen_s",
    "dimension.sector_count_check": "dimension.sector_s",
    "modular.closure_mod_q": "modular.closure_s",
    "modular.is_admissible": "modular.admissible_s",
    "modular.singular_series": "modular.arith_s",
    "modular.nu_q": "modular.arith_s",
    "modular.primitive_root_witness": "modular.arith_s",
    "products.build_omega": "products.omega_s",
    "products.check_products": "products.check_s",
    "products.omega_cardinality_report": "products.check_s",
    "expsum.source_from_orbit": "expsum.source_s",
    "expsum.arc_profile": "expsum.arc_s",
    "expsum.integrate_band": "expsum.band_s",
    "expsum.representation_numbers": "expsum.repnum_s",
    "expsum.band_integral_exact": "expsum.exact_band_s",
    "qmc.zn_points": "qmc.points_s",
    "qmc.write_points_csv": "qmc.csv_s",
    "qmc.read_points_csv": "qmc.csv_s",
    "qmc.star_discrepancy": "qmc.disc_s",
    **{f"cli.{c}": f"cli.{c}_s" for c in ("startup",) + CLI_COMMANDS},
}

COUNTERS = ("orbits.points", "dimension.lam_evals", "modular.closure_calls",
            "products.s1_size", "products.members", "expsum.bands",
            "expsum.grid_points", "qmc.disc_points")


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = sorted(set(STAGE.values()) | set(COUNTERS)
                   | {"dimension.solve_s", "orbits.points_per_s"}
                   | {f"{layer}.{m}" for layer in LAYERS for m in ("busy_s", "failed")})
    return names + ["trace.wall_s", "trace.overhead_s", "trace.spans"]


def unit(name: str) -> str:
    if name in COUNTERS or name.endswith(".failed") or name == "trace.spans":
        return "count"
    return "1/s" if name.endswith("_per_s") else "s"


class Tracer:
    """Records spans: name, start, end, parent span, run id, counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """fn(*args, **kwargs) in a span; `counts` overrides COUNTS[name]."""
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        counts = counts or COUNTS.get(name)
        if counts is not None:
            span["counts"] = counts(result)
        return result

    def install(self) -> None:
        """Wrap the NESTED functions in their modules' globals."""
        for layer, attr in NESTED:
            module = importlib.import_module(f"continuantlab.{layer}")
            original = getattr(module, attr)

            def wrapped(*args, _fn=original, _name=f"{layer}.{attr}", **kw):
                return self.call(_name, _fn, *args, **kw)

            setattr(module, attr, wrapped)
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], failed_by_layer: dict[str, int]) -> dict[str, float]:
    """Per-layer busy and stage self times, counters and failures."""
    out = {name: 0.0 for name in per_layer_names()}
    for span, own in zip(spans, self_times(spans)):
        layer = span["name"].split(".", 1)[0]
        out[f"{layer}.busy_s"] += own
        stage = STAGE.get(span["name"])
        if stage:
            out[stage] += own
        if span["name"] == "dimension.dimension":
            out["dimension.solve_s"] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            out[key] += value
    orbit_s = out["orbits.walk_s"] + out["orbits.aggregate_s"]
    out["orbits.points_per_s"] = out["orbits.points"] / orbit_s if orbit_s else 0.0
    for layer in LAYERS:
        out[f"{layer}.failed"] = failed_by_layer.get(layer, 0)
    for key in COUNTERS:
        out[key] = int(out[key])
    return out
