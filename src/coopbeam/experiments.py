"""Experiment harness: scenario presets, Monte-Carlo sweep runners for the
bundled rate/rank studies, CSV artifacts, and plot-ready series files.

Each experiment is one row of ``EXPERIMENTS``: a description, a point
function ``(systems, opts, rng) -> row`` that solves one sweep value of one
draw, the scenarios that point runs, the scenario fields its sweep and
options set (a spec may not override them with other values), the options it
reads with their defaults and lower bounds, the methods it accepts, the check
of its sweep values, the summary function of the ``<experiment>_summary.json``
assertion records, and whether its points need the A2 baseline.
``_run_one_draw`` holds the only sweep loop and draws every channel.

Reproducibility contract: a run is a pure function of (spec, seed).  The
master SeedSequence spawns one child per draw, which seeds the realization
stream that every point of the draw restarts (common random numbers), and
spawns one grandchild per sweep point, which seeds that point's solvers; so
results are identical for any thread count, and the reduction happens in a
fixed order after all draws complete.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    LinkModel,
    SystemScenario,
    build_double_irs_scenario,
    build_single_irs_baseline_A1,
    build_single_irs_baseline_A2,
    check_baseline_A2_ranks,
    db_to_linear,
    dbm_to_watt,
)
from .metrics import SinrContext, max_min_rate, rank_gain_report
from .multi_user import MuSolveState, algorithm1, dft_codebook_search
from .single_user import (
    SuSolveState, ao_single_user, init_from_single_irs, single_irs_opt, snr_value,
)

# ---------------------------------------------------------------------------
# scenario presets


def su_scenario(kappa_far_db=-10.0, m1=16, m2=16, n_bs=5, power_dbm=15.0):
    """Single-user setup: near links LoS-dominant at 10 dB, far links at kappa."""
    far = LinkModel("rician", rician_k=db_to_linear(kappa_far_db))
    near = LinkModel("rician", rician_k=db_to_linear(10.0))
    links = {"u1": near, "u2": far, "d": far, "g1": far, "g2": near}
    return SystemScenario(
        n_bs=n_bs, m1=m1, m2=m2, n_users=1, links=links,
        tx_power_w=dbm_to_watt(power_dbm),
    )


def mu_scenario(
    k_users=5, power_dbm=20.0, n_bs=40, m1=16, m2=16,
    paths_g2=2, paths_g1=4, paths_d=4, paths_user=4,
):
    """Multi-user setup: geometric links with a rank-2 IRS2->BS channel."""
    links = {
        "u1": LinkModel("geometric", paths=paths_user),
        "u2": LinkModel("geometric", paths=paths_user),
        "d": LinkModel("geometric", paths=paths_d),
        "g1": LinkModel("geometric", paths=paths_g1),
        "g2": LinkModel("geometric", paths=paths_g2),
    }
    return SystemScenario(
        n_bs=n_bs, m1=m1, m2=m2, n_users=k_users, links=links,
        tx_power_w=dbm_to_watt(power_dbm),
    )


def _apply_overrides(scn: SystemScenario, overrides: dict) -> SystemScenario:
    if not overrides:
        return scn
    data = scn.to_dict()
    data.update(overrides)
    return SystemScenario.from_dict(data)


# ---------------------------------------------------------------------------
# point functions (module level so process pools can pickle them)


def _su_solutions(chs, ctx, rng, methods, opts):
    """SNRs of the requested single-user methods on one channel realization."""
    out = {}
    i0 = int(opts["i0"])
    if {"ao-ib", "init-ib", "single-irs"} & set(methods):
        base = build_single_irs_baseline_A1(chs)
        base_state = single_irs_opt(
            base, ctx, restarts=int(opts["restarts"]), max_iters=i0, rng=rng
        )
    if "single-irs" in methods:
        out["single-irs"] = base_state.snr
    if "init-ib" in methods or "ao-ib" in methods:
        init = init_from_single_irs(chs, base_state)
        if "init-ib" in methods:
            out["init-ib"] = snr_value(chs, init.w, init.theta1, init.theta2, ctx)
        if "ao-ib" in methods:
            state, _ = ao_single_user(chs, ctx, init, max_iters=i0)
            out["ao-ib"] = state.snr
    if "dft-search" in methods or "ao-dft" in methods:
        found = dft_codebook_search(chs, ctx, rx_mode="mrc")
        if "dft-search" in methods:
            out["dft-search"] = found.min_sinr
        if "ao-dft" in methods:
            init = SuSolveState(found.w[:, 0], found.theta1, found.theta2)
            state, _ = ao_single_user(chs, ctx, init, max_iters=i0)
            out["ao-dft"] = state.snr
    if "sdr" in methods:
        w0 = np.ones(chs.n_bs, dtype=complex) / math.sqrt(chs.n_bs)
        init = MuSolveState(np.ones(chs.m1, complex), np.ones(chs.m2, complex), w0[:, None])
        state, _ = algorithm1(
            chs, ctx, init=init, rx_mode="mrc", max_iters=int(opts["sdr_iters"]), xi=1e-6,
            eps=1e-3 * _su_snr_bound(chs, ctx), rng=rng,
        )
        out["sdr"] = state.min_sinr
    return out


def _su_snr_bound(chs, ctx):
    """Upper bound on the single-user SNR over every reflect pattern and receiver.

    Triangle inequality on h = G2 Phi2 (D Phi1 u1 + u2) + G1 Phi1 u1 with
    |w^H h| <= ||h||.  Bisection accuracy relative to it keeps the check count
    per subproblem independent of the transmit power.
    """
    norm = np.linalg.norm  # Frobenius norm for the matrices
    u1 = norm(chs.u1)
    amp = norm(chs.g2) * (norm(chs.d) * u1 + norm(chs.u2)) + norm(chs.g1) * u1
    return float(ctx.powers[0] * amp**2 / ctx.noise)


def _a2_ranks(scn):
    """(rank_g, rank_u) of the A2 baseline paired with `scn`: g2's scatterer count, min(K, M)."""
    return scn.links["g2"].paths, min(scn.n_users, scn.m_total)


def _single_methods(opts):
    return any(m.startswith("single") for m in opts["methods"])


def _mu_point(systems, opts, rng):
    """Max-min rates of the requested multi-user methods for one realization."""
    ((scn, chs, base),) = systems
    out = {}
    ctx = SinrContext.from_scenario(scn)
    searched = {}  # one DFT search per (system, mode): it draws no random numbers

    def search(target, mode):
        key = (target is base, mode)
        if key not in searched:
            searched[key] = dft_codebook_search(target, ctx, rx_mode=mode)
        return searched[key]

    for method in opts["methods"]:
        system, mode = method.split("-", 1)
        if system == "dft":
            sinr = search(chs, mode).min_sinr
        else:
            target = base if system == "single" else chs
            found = search(target, mode)  # algorithm1 copies its init
            state, _ = algorithm1(
                target, ctx, init=found, max_iters=int(opts["i1"]), xi=float(opts["xi"]),
                rx_mode=mode, eps=float(opts["eps"]), n_rand=int(opts["n_rand"]), rng=rng,
            )
            sinr = state.min_sinr
        out[method] = max_min_rate([sinr])
        out[f"_sinr:{method}"] = float(sinr)
    return out


def _su_point(systems, opts, rng):
    """Rate log2(1 + SNR) of each requested single-user method."""
    ((scn, chs, _),) = systems
    snrs = _su_solutions(chs, SinrContext.from_scenario(scn), rng, opts["methods"], opts)
    return {method: max_min_rate([snr]) for method, snr in snrs.items()}


def _fig6_point(systems, opts, rng):
    row = {}
    for kdb, system in zip(opts["kappa_set_db"], systems):
        vals = _su_point([system], {**opts, "methods": ["ao-ib", "single-irs"]}, rng)
        row[f"double-ao[k={kdb:g}dB]"] = vals["ao-ib"]
        row[f"single-irs[k={kdb:g}dB]"] = vals["single-irs"]
    return row


def _prop1_point(systems, opts, rng):
    ((scn, chs, _),) = systems
    ctx = SinrContext.from_scenario(scn)
    # prop1 has no i0 option: both AO stages run the default 100 iterations
    snr = _su_solutions(chs, ctx, rng, ("ao-ib", "init-ib", "single-irs"), {**opts, "i0": 100})
    return {
        "ao-ib": max_min_rate([snr["ao-ib"]]),
        "single-irs": max_min_rate([snr["single-irs"]]),
        "_violation": float(snr["ao-ib"] < snr["single-irs"] * (1 - 1e-9)),
        "_init_violation": float(snr["init-ib"] < snr["single-irs"] * (1 - 1e-9)),
    }


def _prop2_point(systems, opts, rng):
    ((scn, chs, base),) = systems
    rank_g, rank_u = _a2_ranks(scn)
    rep = rank_gain_report(chs, base, rng)
    return {
        "rank-h": float(rep.rank_h),
        "rank-hbar": float(rep.rank_hbar),
        "_h_full": float(rep.rank_h == min(scn.n_bs, scn.n_users)),
        "_hbar_designed": float(rep.rank_hbar == min(rank_g, rank_u)),
    }


# ---------------------------------------------------------------------------
# table columns: option ranges and sweep checks


class Opt(NamedTuple):
    """One option of an experiment: its default and the range of accepted values."""

    default: object
    at_least: float | None = None  # smallest accepted value
    above: float | None = None     # accepted values exceed this


class Experiment(NamedTuple):
    description: str
    point: Callable        # ([(scenario, channels, A2 baseline or None)], opts, rng) -> {method: value}
    scenarios: Callable    # (opts, sweep value) -> the scenarios one point runs, before overrides
    sets: tuple            # the scenario fields its sweep and options set
    options: dict          # name -> Opt of every option the point function reads
    methods: frozenset     # accepted options["methods"] entries (empty: no methods option)
    sweep_check: Callable  # (opts, sweep value) -> None, raises ValueError on a bad value
    summarize: Callable    # (spec, per_point) -> the summary's "assertions" record
    builds_a2: Callable = lambda opts: False  # opts -> whether the points need the A2 baseline


def _number(opts, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"sweep value {value!r} is not a number")


def _count(low):
    """Sweep check of an integer axis whose smallest value is `low`."""

    def check(opts, value):
        if not _integer(value) or value < low:
            raise ValueError(f"sweep value {value!r} is not an integer >= {low}")

    return check


def _split(opts, m1):
    if not _integer(m1) or not 0 <= m1 <= opts["m_total"]:
        raise ValueError(f"split {m1!r} is not an integer within the budget 0..{opts['m_total']}")


_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}


def _integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _same_kind(value, default):
    """Whether an option value has its default's type; an integer may stand for a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    return isinstance(value, _KINDS[type(default)]) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# summaries: pass/fail records of the embedded assertions; per_point[i] maps
# each method (and "_" diagnostic) of sweep point i to its values over draws


def _mean(per_point, idx, method):
    vals = per_point[idx].get(method)
    return float(np.mean(vals)) if vals else float("nan")


def _no_summary(spec, per_point):
    return {}


def _fig5_summary(spec, per_point):
    ok = all(
        _mean(per_point, i, "ao-ib") >= _mean(per_point, i, "single-irs") - 1e-12
        for i in range(len(spec.sweep))
        if per_point[i]
    )
    return {"double_ge_single_all_splits": bool(ok)}


def _fig6_summary(spec, per_point):
    gains = {}
    methods = sorted({m for p in per_point for m in p if not m.startswith("_")})
    for method in methods:
        for i in range(len(spec.sweep) - 1):
            if 2 * spec.sweep[i] == spec.sweep[i + 1]:
                key = f"{method} {spec.sweep[i]}->{spec.sweep[i + 1]}"
                gains[key] = _mean(per_point, i + 1, method) - _mean(per_point, i, method)
    return {"doubling_gains_bits": gains}


def _fig7_summary(spec, per_point):
    out = {}
    for mode in ("zf", "mmse"):
        a, d = f"alg1-{mode}", f"dft-{mode}"
        if a in per_point[0] and d in per_point[0]:
            out[f"alg1_ge_dft_{mode}"] = all(
                _mean(per_point, i, a) >= _mean(per_point, i, d) - 1e-12
                for i in range(len(spec.sweep))
            )
    return out


def _fig8_summary(spec, per_point):
    if len(spec.sweep) < 2:
        return {}
    out = {}
    for key in sorted(key for key in per_point[0] if key.startswith("_sinr:")):
        lo, hi = _mean(per_point, 0, key), _mean(per_point, -1, key)
        out[f"sinr_growth[{key[6:]}]"] = (hi - lo) / lo if lo > 0 else (math.inf if hi > 0 else 0.0)
    return out


def _fig9_summary(spec, per_point):
    return {
        f"rate_span[{m}]": {"first": _mean(per_point, 0, m), "last": _mean(per_point, -1, m)}
        for m in sorted(per_point[0])
        if not m.startswith("_")
    }


def _prop1_summary(spec, per_point):
    viol = sum(sum(p.get("_violation", [])) for p in per_point)
    init_viol = sum(sum(p.get("_init_violation", [])) for p in per_point)
    return {"violations": int(viol), "init_violations": int(init_viol), "pass": viol == 0}


def _prop2_summary(spec, per_point):
    def pooled(key):
        vals = [v for p in per_point for v in p.get(key, [])]
        return float(np.mean(vals)) if vals else 0.0

    full, designed = pooled("_h_full"), pooled("_hbar_designed")
    return {
        "frac_rank_h_full": full,
        "frac_rank_hbar_designed": designed,
        "pass": full >= 0.95 and designed >= 0.95,
    }


# ---------------------------------------------------------------------------
# the experiment table


_SU_METHODS = frozenset({"ao-ib", "init-ib", "single-irs", "dft-search", "ao-dft", "sdr"})
_MU_METHODS = frozenset(
    f"{system}-{rx}"
    for system in ("alg1", "dft", "double", "single")
    for rx in ("zf", "mmse", "mrc")
)
_SU_SOLVE = {"restarts": Opt(20, at_least=1), "i0": Opt(100, at_least=1)}
_SU_OPTS = {**_SU_SOLVE, "kappa_far_db": Opt(-10.0), "sdr_iters": Opt(10, at_least=1)}
_MU_OPTS = {
    "i1": Opt(4, at_least=1), "xi": Opt(1e-3, at_least=0), "eps": Opt(0.1, above=0),
    "n_rand": Opt(100, at_least=1),
}

EXPERIMENTS = {
    "fig4-rate-vs-power": Experiment(
        "single-user achievable rate vs transmit power for the AO/SDR/codebook designs",
        _su_point, lambda o, p: [su_scenario(o["kappa_far_db"], power_dbm=p)],
        ("n_users", "tx_power_w", "links"),
        {**_SU_OPTS, "methods": Opt(["ao-ib", "ao-dft", "dft-search", "sdr", "single-irs"])},
        _SU_METHODS, _number, _no_summary),
    "fig5-rate-vs-M1-split": Experiment(
        "single-user rate vs subsurface split M1 under a fixed total budget",
        _su_point, lambda o, m1: [su_scenario(o["kappa_far_db"], m1=m1, m2=o["m_total"] - m1)],
        ("n_users", "m1", "m2", "links"),
        {**_SU_OPTS, "m_total": Opt(32, at_least=0),
         "methods": Opt(["ao-ib", "init-ib", "single-irs"])},
        _SU_METHODS, _split, _fig5_summary),
    "fig6-rate-vs-totalM": Experiment(
        "single-user rate vs total subsurfaces for several Rician factors",
        _fig6_point,
        lambda o, m: [su_scenario(k, m1=m // 2, m2=m - m // 2) for k in o["kappa_set_db"]],
        ("n_users", "m1", "m2", "links"),
        {**_SU_SOLVE, "kappa_set_db": Opt([-10.0, 0.0, 10.0])}, frozenset(),
        _count(0), _fig6_summary),
    "fig7-mu-alg": Experiment(
        "multi-user max-min rate vs power: alternating optimizer against codebook search",
        _mu_point, lambda o, p: [mu_scenario(o["k_users"], power_dbm=p)], ("n_users", "tx_power_w"),
        {**_MU_OPTS, "k_users": Opt(5, at_least=1),
         "methods": Opt(["alg1-zf", "alg1-mmse", "dft-zf", "dft-mmse"])},
        _MU_METHODS, _number, _fig7_summary, _single_methods),
    "fig8-mu-vs-power": Experiment(
        "multi-user max-min rate vs power: double-IRS against the single-IRS baseline",
        _mu_point, lambda o, p: [mu_scenario(o["k_users"], power_dbm=p)], ("n_users", "tx_power_w"),
        {**_MU_OPTS, "k_users": Opt(5, at_least=1),
         "methods": Opt(["double-mmse", "single-mmse"])},
        _MU_METHODS, _number, _fig8_summary, _single_methods),
    "fig9-rate-vs-K": Experiment(
        "multi-user max-min rate vs number of users at high power",
        _mu_point, lambda o, k: [mu_scenario(k, power_dbm=o["power_dbm"])],
        ("n_users", "tx_power_w"),
        {**_MU_OPTS, "power_dbm": Opt(30.0),
         "methods": Opt(["double-mmse", "double-zf", "single-mmse", "single-zf"])},
        _MU_METHODS, _count(1), _fig9_summary, _single_methods),
    "prop1-property": Experiment(
        "double-IRS-with-init SNR never below the single-IRS optimum",
        _prop1_point, lambda o, kdb: [su_scenario(kdb)], ("n_users", "links"),
        {"restarts": _SU_SOLVE["restarts"]}, frozenset(), _number, _prop1_summary),
    "prop2-rank": Experiment(
        "effective channel rank of the double/single systems",
        _prop2_point, lambda o, k: [mu_scenario(k)], ("n_users",),
        {}, frozenset(), _count(1), _prop2_summary, lambda opts: True),
}


@dataclass
class ExperimentSpec:
    """One experiment request: id, sweep axis, draw count, seed, overrides."""

    experiment: str
    sweep: list
    draws: int = 100
    seed: int = 0
    out_dir: str = "results"
    scenario: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; known ids: {', '.join(EXPERIMENTS)}"
            )
        if not isinstance(self.sweep, (list, tuple)) or len(self.sweep) == 0:
            raise ValueError("sweep must be a non-empty list")
        self.sweep = list(self.sweep)
        if not _integer(self.draws) or self.draws < 1:
            raise ValueError(f"draws must be an integer >= 1, got {self.draws!r}")
        if not _integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        exp = EXPERIMENTS[self.experiment]
        if not isinstance(self.options, dict):
            raise ValueError("options must be an object")
        unknown = sorted(set(self.options) - set(exp.options))
        if unknown:
            raise ValueError(
                f"unknown options {unknown} for {self.experiment}; known: {', '.join(exp.options)}"
            )
        for name, value in self.options.items():
            opt = exp.options[name]
            if not _same_kind(value, opt.default):
                raise ValueError(
                    f"option {name!r} must have the type of its default {opt.default!r}, "
                    f"got {value!r}"
                )
            # a repeated entry (10 and 10.0 alike) would overwrite its twin's row
            if isinstance(value, list) and (not value or len(set(value)) < len(value)):
                raise ValueError(f"option {name!r} must be a non-empty list of distinct entries, "
                                 f"got {value!r}")
            # NaN passes every range check below, as it fails every comparison
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, numbers.Real) and not math.isfinite(v) for v in values):
                raise ValueError(f"option {name!r} must be finite, got {value!r}")
            if opt.at_least is not None and value < opt.at_least:
                raise ValueError(f"option {name!r} must be >= {opt.at_least}, got {value!r}")
            if opt.above is not None and value <= opt.above:
                raise ValueError(f"option {name!r} must be > {opt.above}, got {value!r}")
        if "methods" in self.options:
            unknown = sorted(set(self.options["methods"]) - exp.methods)
            if unknown:
                raise ValueError(
                    f"unknown methods {unknown} for {self.experiment}; "
                    f"known: {', '.join(sorted(exp.methods))}"
                )
        # the draws build their scenarios, and the A2 baselines where asked for, and read
        # their options from these; fail here, not in a worker
        opts = self.merged_options
        for value in self.sweep:
            exp.sweep_check(opts, value)
            for scn in self.scenarios(opts, value):
                if exp.builds_a2(opts):
                    check_baseline_A2_ranks(scn, *_a2_ranks(scn))

    @property
    def merged_options(self):
        """The experiment's default options, overridden by this spec's."""
        defaults = {name: opt.default for name, opt in EXPERIMENTS[self.experiment].options.items()}
        return {**defaults, **self.options}

    def scenarios(self, opts, value):
        """The scenarios of sweep point `value`: the experiment's, with this spec's overrides.

        An override of a field that the sweep or options set is rejected unless it
        repeats the value they set: a different value would beat the sweep, or be ignored.
        """
        exp = EXPERIMENTS[self.experiment]
        out = []
        for preset in exp.scenarios(opts, value):
            scn = _apply_overrides(preset, self.scenario)
            for name in exp.sets:  # unequal only where an override differs
                if not np.array_equal(getattr(scn, name), getattr(preset, name)):
                    raise ValueError(
                        f"scenario field {name!r} is set by the sweep and options of "
                        f"{self.experiment}; an override may only repeat that value"
                    )
            out.append(scn)
        return out

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {"experiment", "sweep", "draws", "seed", "out_dir", "scenario", "options"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown spec fields: {sorted(extra)}")
        if "experiment" not in d or "sweep" not in d:
            raise ValueError("spec requires at least 'experiment' and 'sweep'")
        return cls(**d)


def load_spec(path) -> ExperimentSpec:
    """Parse a JSON experiment spec with line/column diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    try:
        return ExperimentSpec.from_dict(data)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# driver


def _run_one_draw(args):
    """Evaluate every sweep point of one draw; a solver failure stays with its point.

    ``point_scenarios[i]`` lists the scenarios of sweep point i, resolved once per
    run by ``ExperimentSpec.scenarios``.  Each point restarts the draw's realization
    stream and draws, per scenario, the channels and then, if asked for, the A2
    baseline, whatever its sweep position.

    Returns ``(draw_index, rows, errors)``: ``rows[i]`` is point i's row, or
    None when it failed, and ``errors`` lists ``(point_index, message)``.
    """
    spec, point_scenarios, draw_index, seed_seq = args
    exp = EXPERIMENTS[spec.experiment]
    opts = spec.merged_options
    point_rngs = [np.random.default_rng(sq) for sq in seed_seq.spawn(len(spec.sweep))]
    a2 = exp.builds_a2(opts)
    rows, errors = [], []
    for scenarios, rng in zip(point_scenarios, point_rngs):
        stream = np.random.default_rng(seed_seq)
        try:
            systems = []
            for scn in scenarios:
                chs = build_double_irs_scenario(scn, stream)
                base = build_single_irs_baseline_A2(scn, *_a2_ranks(scn), stream) if a2 else None
                systems.append((scn, chs, base))
            rows.append(exp.point(systems, opts, rng))
        except np.linalg.LinAlgError as err:
            errors.append((len(rows), f"{type(err).__name__}: {err}"))
            rows.append(None)
    return draw_index, rows, errors


def in_workers(fn, tasks, workers):
    """Map fn over tasks in spawned (not forked) worker processes that start with one BLAS
    thread each, so they neither oversubscribe the cores nor inherit the caller's."""
    import multiprocessing  # only here: an in-process run does not pay for the import
    from concurrent.futures import ProcessPoolExecutor

    saved = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    os.environ.update(dict.fromkeys(saved, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


def run_experiment(spec: ExperimentSpec, threads=1):
    """Run one experiment; writes the CSV and summary artifacts.

    Returns the summary dict (also stored as JSON next to the CSV).  A solver
    failure drops only the failed (draw, sweep point): the point's other
    draws and every other point are kept.  Each CSV row's status is 'failed'
    when its own point failed in some draw and 'ok' otherwise, and the
    summary's ``failures`` lists one ``{"draw", "sweep", "error"}`` entry per
    failed (draw, point).  A point that failed in every draw has no rows.
    """
    t_start = time.perf_counter()
    opts = spec.merged_options
    point_scenarios = [spec.scenarios(opts, value) for value in spec.sweep]
    master = np.random.SeedSequence(spec.seed)
    children = master.spawn(spec.draws)
    tasks = [(spec, point_scenarios, i, children[i]) for i in range(spec.draws)]
    outcomes = in_workers(_run_one_draw, tasks, threads) if threads > 1 else list(map(_run_one_draw, tasks))
    outcomes.sort(key=lambda o: o[0])

    per_point = [dict() for _ in spec.sweep]  # method -> list of values
    failed_points = set()
    failures = []
    for draw_index, rows, errors in outcomes:
        for point_idx, err in errors:
            failed_points.add(point_idx)
            failures.append({"draw": draw_index, "sweep": spec.sweep[point_idx], "error": err})
        for point_idx, row in enumerate(rows):
            for method, value in (row or {}).items():
                per_point[point_idx].setdefault(method, []).append(float(value))

    os.makedirs(spec.out_dir, exist_ok=True)
    csv_path = os.path.join(spec.out_dir, f"{spec.experiment}.csv")
    table = []
    for point_idx, sweep_value in enumerate(spec.sweep):
        for method in sorted(per_point[point_idx]):
            if method.startswith("_"):
                continue
            vals = np.asarray(per_point[point_idx][method])
            stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            table.append(
                {
                    "sweep": sweep_value,
                    "method": method,
                    "mean_rate": float(vals.mean()),
                    "stderr": stderr,
                    "draws": int(vals.size),
                    "status": "failed" if point_idx in failed_points else "ok",
                }
            )
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["sweep", "method", "mean_rate", "stderr", "draws", "status"]
        )
        writer.writeheader()
        for row in table:
            out = dict(row)
            out["mean_rate"] = format(row["mean_rate"], ".10g")
            out["stderr"] = format(row["stderr"], ".10g")
            writer.writerow(out)

    summary = {
        "experiment": spec.experiment,
        "seed": spec.seed,
        "draws": spec.draws,
        "sweep": spec.sweep,
        "csv": csv_path,
        "failures": failures,
        "assertions": EXPERIMENTS[spec.experiment].summarize(spec, per_point),
    }
    with open(os.path.join(spec.out_dir, f"{spec.experiment}_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    summary["runtime_s"] = time.perf_counter() - t_start
    return summary


def emit_plotdata(csv_path):
    """Split an experiment CSV into per-method (x, y, yerr) series files next to it."""
    out_dir = os.path.dirname(os.path.abspath(csv_path))
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"sweep", "method", "mean_rate", "stderr"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{csv_path}: missing required columns {sorted(required)}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    series = {}
    for row in rows:
        try:
            series.setdefault(row["method"], []).append(
                (row["sweep"], float(row["mean_rate"]), float(row["stderr"]))
            )
        except (TypeError, ValueError) as err:
            raise ValueError(f"{csv_path}: malformed row {row!r}") from err
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    paths = []
    for method, points in sorted(series.items()):
        safe = "".join(ch if ch.isalnum() or ch in "-._" else "-" for ch in method)
        path = os.path.join(out_dir, f"{stem}__{safe}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# x y yerr\n")
            for x, y, yerr in points:
                fh.write(f"{x} {format(y, '.10g')} {format(yerr, '.10g')}\n")
        paths.append(path)
    return paths
