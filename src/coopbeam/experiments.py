"""Experiment harness: scenario presets, Monte-Carlo sweep runners for the
bundled rate/rank studies, CSV artifacts, and plot-ready series files.

Each experiment is one row of ``EXPERIMENTS``: a description, a point
function ``(spec, opts, value, rng, draw) -> row`` that evaluates one sweep
value of one draw, the options it reads with their defaults, and the
methods it accepts.  ``_run_one_draw`` holds the only sweep loop.

Reproducibility contract: a run is a pure function of (spec, seed).  Draw
seeds come from numpy SeedSequence spawning - the master sequence spawns one
child per draw, and each draw spawns one grandchild per sweep point - so
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    ChannelSet,
    LinkModel,
    ReflectPattern,
    SystemScenario,
    build_double_irs_scenario,
    build_single_irs_baseline_A1,
    build_single_irs_baseline_A2,
    db_to_linear,
    dbm_to_watt,
)
from .metrics import SinrContext, max_min_rate, rank_gain_report, sinr_per_user
from .multi_user import algorithm1, dft_codebook_search, mmse_receivers, zf_receivers
from .sdp import MaxMinSdpInstance, SdpSolverError
from .single_user import (
    SuSolveState,
    ao_single_user,
    init_from_single_irs,
    opt_theta_closed_form,
    sdr_benchmark_su,
    single_irs_opt,
    snr_value,
)

# ---------------------------------------------------------------------------
# scenario presets


def su_scenario(kappa_far_db=-10.0, m1=16, m2=16, n_bs=5, power_dbm=15.0, seed=0):
    """Single-user setup: near links LoS-dominant at 10 dB, far links at kappa."""
    far = LinkModel("rician", rician_k=db_to_linear(kappa_far_db))
    near = LinkModel("rician", rician_k=db_to_linear(10.0))
    links = {"u1": near, "u2": far, "d": far, "g1": far, "g2": near}
    return SystemScenario(
        n_bs=n_bs, m1=m1, m2=m2, n_users=1, links=links,
        tx_power_w=dbm_to_watt(power_dbm), seed=seed,
    )


def mu_scenario(
    k_users=5, power_dbm=20.0, n_bs=40, m1=16, m2=16,
    paths_g2=2, paths_g1=4, paths_d=4, paths_user=4, seed=0,
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
        tx_power_w=dbm_to_watt(power_dbm), seed=seed,
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
    """Rates of the requested single-user methods on one channel realization."""
    out = {}
    i0 = int(opts["i0"])
    needs_base = {"ao-ib", "init-ib", "single-irs"} & set(methods)
    base_state = None
    if needs_base:
        base = build_single_irs_baseline_A1(chs)
        base_state = single_irs_opt(
            base, ctx, restarts=int(opts["restarts"]), max_iters=i0, rng=rng
        )
    if "single-irs" in methods:
        out["single-irs"] = max_min_rate([base_state.snr])
    if "init-ib" in methods or "ao-ib" in methods:
        init = init_from_single_irs(chs, base_state)
        if "init-ib" in methods:
            out["init-ib"] = max_min_rate(
                [snr_value(chs, init.w, init.theta1, init.theta2, ctx)]
            )
        if "ao-ib" in methods:
            state, _ = ao_single_user(chs, ctx, init, max_iters=i0)
            out["ao-ib"] = max_min_rate([state.snr])
    if "dft-search" in methods or "ao-dft" in methods:
        found = dft_codebook_search(chs, ctx)
        if "dft-search" in methods:
            out["dft-search"] = max_min_rate([found.objective])
        if "ao-dft" in methods:
            init = SuSolveState(found.rx.w[:, 0], found.pattern.theta1, found.pattern.theta2)
            state, _ = ao_single_user(chs, ctx, init, max_iters=i0)
            out["ao-dft"] = max_min_rate([state.snr])
    if "sdr" in methods:
        w0 = np.ones(chs.n_bs, dtype=complex) / math.sqrt(chs.n_bs)
        bench = sdr_benchmark_su(chs, ctx, w0, rng=rng, max_iters=int(opts["sdr_iters"]))
        out["sdr"] = max_min_rate([bench.snr])
    return out


def _mu_point(scn, rng, opts):
    """Max-min rates of the requested multi-user methods for one realization."""
    out = {}
    methods = opts["methods"]
    ctx = SinrContext.from_scenario(scn)
    chs = build_double_irs_scenario(scn, rng) if any(m.startswith(("alg1", "dft", "double")) for m in methods) else None
    base = None
    if any(m.startswith("single") for m in methods):
        base = build_single_irs_baseline_A2(
            scn, rank_g=scn.links["g2"].paths, rank_u=min(scn.n_users, scn.m_total), rng=rng
        )
    for method in methods:
        system, mode = method.split("-", 1)
        if system == "dft":
            sinr = dft_codebook_search(chs, ctx, rx_mode=mode).objective
        else:
            target = base if system == "single" else chs
            found = dft_codebook_search(target, ctx, rx_mode=mode)
            state, _ = algorithm1(
                target, ctx, init=found, max_iters=int(opts["i1"]), xi=float(opts["xi"]),
                rx_mode=mode, eps=float(opts["eps"]), n_rand=int(opts["n_rand"]), rng=rng,
            )
            sinr = state.min_sinr
        out[method] = max_min_rate([sinr])
        out[f"_sinr:{method}"] = float(sinr)
    return out


def _fig4_point(spec, opts, p_dbm, rng, draw):
    if "chs" not in draw:
        # one channel realization per draw, drawn from the first point's generator
        draw["scn"] = _apply_overrides(
            su_scenario(kappa_far_db=float(opts["kappa_far_db"])), spec.scenario
        )
        draw["chs"] = build_double_irs_scenario(draw["scn"], rng)
    scn = draw["scn"]
    ctx = SinrContext(np.full(scn.n_users, dbm_to_watt(p_dbm)), scn.noise_w)
    return _su_solutions(draw["chs"], ctx, rng, opts["methods"], opts)


def _fig5_point(spec, opts, m1, rng, draw):
    m1, m_total = int(m1), int(opts["m_total"])
    scn = _apply_overrides(
        su_scenario(kappa_far_db=float(opts["kappa_far_db"]), m1=m1, m2=m_total - m1),
        spec.scenario,
    )
    chs = build_double_irs_scenario(scn, rng)
    return _su_solutions(chs, SinrContext.from_scenario(scn), rng, opts["methods"], opts)


def _fig6_point(spec, opts, m, rng, draw):
    m = int(m)
    row = {}
    for kdb in opts["kappa_set_db"]:
        sub = rng.spawn(1)[0]
        scn = _apply_overrides(
            su_scenario(kappa_far_db=float(kdb), m1=m // 2, m2=m - m // 2), spec.scenario
        )
        chs = build_double_irs_scenario(scn, sub)
        ctx = SinrContext.from_scenario(scn)
        vals = _su_solutions(chs, ctx, sub, ["ao-ib", "single-irs"], opts)
        row[f"double-ao[k={kdb:g}dB]"] = vals["ao-ib"]
        row[f"single-irs[k={kdb:g}dB]"] = vals["single-irs"]
    return row


def _mu_power_point(spec, opts, p_dbm, rng, draw):
    scn = _apply_overrides(
        mu_scenario(k_users=int(opts["k_users"]), power_dbm=float(p_dbm)), spec.scenario
    )
    return _mu_point(scn, rng, opts)


def _fig9_point(spec, opts, k, rng, draw):
    scn = _apply_overrides(
        mu_scenario(k_users=int(k), power_dbm=float(opts["power_dbm"])), spec.scenario
    )
    return _mu_point(scn, rng, opts)


def _prop1_point(spec, opts, kdb, rng, draw):
    scn = _apply_overrides(su_scenario(kappa_far_db=float(kdb)), spec.scenario)
    chs = build_double_irs_scenario(scn, rng)
    ctx = SinrContext.from_scenario(scn)
    base = build_single_irs_baseline_A1(chs)
    base_state = single_irs_opt(base, ctx, restarts=int(opts["restarts"]), rng=rng)
    init = init_from_single_irs(chs, base_state)
    init_snr = snr_value(chs, init.w, init.theta1, init.theta2, ctx)
    state, _ = ao_single_user(chs, ctx, init)
    return {
        "ao-ib": max_min_rate([state.snr]),
        "single-irs": max_min_rate([base_state.snr]),
        "_violation": float(state.snr < base_state.snr * (1 - 1e-9)),
        "_init_violation": float(init_snr < base_state.snr * (1 - 1e-9)),
    }


def _prop2_point(spec, opts, k, rng, draw):
    scn = _apply_overrides(mu_scenario(k_users=int(k)), spec.scenario)
    chs = build_double_irs_scenario(scn, rng)
    base = build_single_irs_baseline_A2(
        scn, rank_g=scn.links["g2"].paths, rank_u=min(scn.n_users, scn.m_total), rng=rng
    )
    pat = ReflectPattern.random(scn.m1, scn.m2, rng)
    rep = rank_gain_report(chs, base, pat, rng=rng)
    return {
        "rank-h": float(rep.rank_h),
        "rank-hbar": float(rep.rank_hbar),
        "_clipped_holds": float(rep.clipped_gain_holds),
    }


def _oracle_closed_form_grid(rng):
    chs = _random_channel_set(rng, n=3, m1=3, m2=3, k=1)
    ctx = SinrContext(np.ones(1), 1.0)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = w / np.linalg.norm(w)
    t1 = np.exp(1j * rng.uniform(0, 2 * math.pi, 3))
    t2 = opt_theta_closed_form(chs, 2, t1, w)
    grid = _grid_best_theta2(chs, t1, w, ctx, points=32)
    return float(snr_value(chs, w, t1, t2, ctx) >= grid * (1 - 1e-9))


def _oracle_homogenization(rng):
    inst = _random_instance(rng, k=2, m=4)
    theta = np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
    lhs = np.real(
        theta.conj() @ inst.constraint_matrix(0, 1) @ theta
    ) + np.abs(inst.qbar[0, 1]) ** 2
    rec = np.conj(theta[-1]) * theta[:-1]
    rhs = np.abs(inst.q[0, 1].conj() @ rec + inst.qbar[0, 1]) ** 2
    return float(abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0))


def _oracle_receivers(rng):
    h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    ctx = SinrContext(np.ones(3), 0.5)
    wz = zf_receivers(h, ctx.powers)
    wm = mmse_receivers(h, ctx.powers, ctx.noise)
    gz = sinr_per_user(h, wz.w, ctx)
    gm = sinr_per_user(h, wm.w, ctx)
    ident = np.max(np.abs(wz.w.conj().T @ h - np.eye(3)))
    return float(ident <= 1e-9 and np.all(gm >= gz * (1 - 1e-10)))


_ORACLE_CHECKS = {
    "closed-form-grid": _oracle_closed_form_grid,
    "homogenization": _oracle_homogenization,
    "receivers": _oracle_receivers,
}


def _oracle_point(spec, opts, check, rng, draw):
    return {check: _ORACLE_CHECKS[check](rng)}


def _random_channel_set(rng, n, m1, m2, k):
    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return ChannelSet.from_links(c(m1, k), c(m2, k), c(m2, m1), c(n, m1), c(n, m2))


def _grid_best_theta2(chs, t1, w, ctx, points=32):
    m2 = chs.m2
    phases = 2 * math.pi * np.arange(points) / points
    grids = np.meshgrid(*([phases] * m2), indexing="ij")
    combos = np.exp(1j * np.stack([g.ravel() for g in grids], axis=1))
    x1 = t1 * chs.u1[:, 0]
    b = (chs.g2 * (chs.d @ x1 + chs.u2[:, 0])).conj().T @ w
    b0 = np.vdot(w, chs.g1 @ x1)
    vals = np.abs(combos @ b.conj() + b0) ** 2
    return float(ctx.powers[0] * vals.max() / ctx.noise)


def _random_instance(rng, k, m):
    q = rng.standard_normal((k, k, m)) + 1j * rng.standard_normal((k, k, m))
    qb = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return MaxMinSdpInstance(q, qb, np.ones(k))


# ---------------------------------------------------------------------------
# the experiment table


class Experiment(NamedTuple):
    description: str
    point: Callable        # (spec, opts, sweep value, rng, draw dict) -> {method: value}
    options: dict          # every option the point function reads, with its default
    methods: frozenset     # accepted options["methods"] entries (empty: no methods option)
    sweep_check: Callable  # (opts, sweep value) -> None, raises ValueError on a bad value


def _number(opts, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"sweep value {value!r} is not a number")


def _split(opts, m1):
    _number(opts, m1)
    if not 0 <= m1 <= opts["m_total"]:
        raise ValueError(f"split {m1} outside the budget {opts['m_total']}")


def _oracle_check(opts, check):
    if not isinstance(check, str) or check not in _ORACLE_CHECKS:
        raise ValueError(f"unknown oracle check {check!r}; known: {', '.join(_ORACLE_CHECKS)}")


_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}


def _same_kind(value, default):
    """Whether an option value has its default's type; an integer may stand for a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    return isinstance(value, _KINDS[type(default)]) and not isinstance(value, bool)


_SU_METHODS = frozenset({"ao-ib", "init-ib", "single-irs", "dft-search", "ao-dft", "sdr"})
_MU_METHODS = frozenset(
    f"{system}-{rx}"
    for system in ("alg1", "dft", "double", "single")
    for rx in ("zf", "mmse", "mrc")
)
_SU_SOLVE = {"restarts": 20, "i0": 100}
_SU_OPTS = {**_SU_SOLVE, "kappa_far_db": -10.0, "sdr_iters": 10}
_MU_OPTS = {"i1": 4, "xi": 1e-3, "eps": 0.1, "n_rand": 100}

EXPERIMENTS = {
    "fig4-rate-vs-power": Experiment(
        "single-user achievable rate vs transmit power for the AO/SDR/codebook designs",
        _fig4_point,
        {**_SU_OPTS, "methods": ["ao-ib", "ao-dft", "dft-search", "sdr", "single-irs"]},
        _SU_METHODS, _number),
    "fig5-rate-vs-M1-split": Experiment(
        "single-user rate vs subsurface split M1 under a fixed total budget",
        _fig5_point,
        {**_SU_OPTS, "m_total": 32, "methods": ["ao-ib", "init-ib", "single-irs"]},
        _SU_METHODS, _split),
    "fig6-rate-vs-totalM": Experiment(
        "single-user rate vs total subsurfaces for several Rician factors",
        _fig6_point, {**_SU_SOLVE, "kappa_set_db": [-10.0, 0.0, 10.0]}, frozenset(), _number),
    "fig7-mu-alg": Experiment(
        "multi-user max-min rate vs power: alternating optimizer against codebook search",
        _mu_power_point,
        {**_MU_OPTS, "k_users": 5, "methods": ["alg1-zf", "alg1-mmse", "dft-zf", "dft-mmse"]},
        _MU_METHODS, _number),
    "fig8-mu-vs-power": Experiment(
        "multi-user max-min rate vs power: double-IRS against the single-IRS baseline",
        _mu_power_point,
        {**_MU_OPTS, "k_users": 5, "methods": ["double-mmse", "single-mmse"]},
        _MU_METHODS, _number),
    "fig9-rate-vs-K": Experiment(
        "multi-user max-min rate vs number of users at high power",
        _fig9_point,
        {**_MU_OPTS, "power_dbm": 30.0,
         "methods": ["double-mmse", "double-zf", "single-mmse", "single-zf"]},
        _MU_METHODS, _number),
    "prop1-property": Experiment(
        "double-IRS-with-init SNR never below the single-IRS optimum",
        _prop1_point, {"restarts": _SU_SOLVE["restarts"]}, frozenset(), _number),
    "prop2-rank": Experiment(
        "effective channel rank of the double/single systems", _prop2_point, {}, frozenset(),
        _number),
    "oracle-suite": Experiment(
        "self-check batch of closed-form and identity oracles", _oracle_point, {}, frozenset(),
        _oracle_check),
}

EXPERIMENT_IDS = tuple(EXPERIMENTS)


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
                f"unknown experiment {self.experiment!r}; known ids: {', '.join(EXPERIMENT_IDS)}"
            )
        if not isinstance(self.sweep, (list, tuple)) or len(self.sweep) == 0:
            raise ValueError("sweep must be a non-empty list")
        self.sweep = list(self.sweep)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        # the draws build their scenarios and read their options from these;
        # fail here, not in a worker
        _apply_overrides(SystemScenario(), self.scenario)
        exp = EXPERIMENTS[self.experiment]
        if not isinstance(self.options, dict):
            raise ValueError("options must be an object")
        unknown = sorted(set(self.options) - set(exp.options))
        if unknown:
            raise ValueError(
                f"unknown options {unknown} for {self.experiment}; known: {', '.join(exp.options)}"
            )
        for name, value in self.options.items():
            default = exp.options[name]
            if not _same_kind(value, default):
                raise ValueError(
                    f"option {name!r} must have the type of its default {default!r}, got {value!r}"
                )
        if "methods" in self.options:
            methods = self.options["methods"]
            if not methods:
                raise ValueError("methods must be a non-empty list")
            unknown = sorted(set(methods) - exp.methods)
            if unknown:
                raise ValueError(
                    f"unknown methods {unknown} for {self.experiment}; "
                    f"known: {', '.join(sorted(exp.methods))}"
                )
        opts = self.merged_options
        for value in self.sweep:
            exp.sweep_check(opts, value)

    @property
    def merged_options(self):
        """The experiment's default options, overridden by this spec's."""
        return {**EXPERIMENTS[self.experiment].options, **self.options}

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

    Returns ``(draw_index, rows, errors)``: ``rows[i]`` is point i's row, or
    None when it failed, and ``errors`` lists ``(point_index, message)``.
    """
    spec_dict, draw_index, seed_seq = args
    spec = ExperimentSpec.from_dict(spec_dict)
    exp = EXPERIMENTS[spec.experiment]
    opts = spec.merged_options
    point_rngs = [np.random.default_rng(sq) for sq in seed_seq.spawn(len(spec.sweep))]
    draw = {}
    rows, errors = [], []
    for value, rng in zip(spec.sweep, point_rngs):
        try:
            rows.append(exp.point(spec, opts, value, rng, draw))
        except (SdpSolverError, np.linalg.LinAlgError) as err:
            errors.append((len(rows), f"{type(err).__name__}: {err}"))
            rows.append(None)
    return draw_index, rows, errors


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
    master = np.random.SeedSequence(spec.seed)
    children = master.spawn(spec.draws)
    tasks = [(spec.to_dict(), i, children[i]) for i in range(spec.draws)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_run_one_draw, tasks))
    else:
        outcomes = [_run_one_draw(t) for t in tasks]
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
        "assertions": _summarize(spec, per_point),
    }
    with open(os.path.join(spec.out_dir, f"{spec.experiment}_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    summary["runtime_s"] = time.perf_counter() - t_start
    return summary


def _mean(per_point, idx, method):
    vals = per_point[idx].get(method)
    return float(np.mean(vals)) if vals else float("nan")


def _summarize(spec, per_point):
    """Pass/fail records for the assertions embedded in each experiment."""
    out = {}
    exp = spec.experiment
    if exp == "fig5-rate-vs-M1-split":
        ok = all(
            _mean(per_point, i, "ao-ib") >= _mean(per_point, i, "single-irs") - 1e-12
            for i in range(len(spec.sweep))
            if per_point[i]
        )
        out["double_ge_single_all_splits"] = bool(ok)
    elif exp == "fig6-rate-vs-totalM":
        gains = {}
        methods = sorted({m for p in per_point for m in p if not m.startswith("_")})
        for method in methods:
            for i in range(len(spec.sweep) - 1):
                if 2 * spec.sweep[i] == spec.sweep[i + 1]:
                    key = f"{method} {spec.sweep[i]}->{spec.sweep[i + 1]}"
                    gains[key] = _mean(per_point, i + 1, method) - _mean(per_point, i, method)
        out["doubling_gains_bits"] = gains
    elif exp == "fig7-mu-alg":
        for mode in ("zf", "mmse"):
            a, d = f"alg1-{mode}", f"dft-{mode}"
            if per_point and a in per_point[0] and d in per_point[0]:
                out[f"alg1_ge_dft_{mode}"] = bool(
                    all(
                        _mean(per_point, i, a) >= _mean(per_point, i, d) - 1e-12
                        for i in range(len(spec.sweep))
                    )
                )
    elif exp == "fig8-mu-vs-power":
        if len(spec.sweep) >= 2 and per_point:
            lo, hi = 0, len(spec.sweep) - 1
            for key in sorted(per_point[0]):
                if not key.startswith("_sinr:"):
                    continue
                lo_sinr = _mean(per_point, lo, key)
                hi_sinr = _mean(per_point, hi, key)
                out[f"sinr_growth[{key[6:]}]"] = (
                    (hi_sinr - lo_sinr) / lo_sinr if lo_sinr > 0 else float("inf")
                )
    elif exp == "fig9-rate-vs-K":
        for method in sorted(per_point[0] if per_point else {}):
            if method.startswith("_"):
                continue
            rates = [_mean(per_point, i, method) for i in range(len(spec.sweep))]
            out[f"rate_span[{method}]"] = {"first": rates[0], "last": rates[-1]}
    elif exp == "prop1-property":
        viol = sum(sum(p.get("_violation", [])) for p in per_point)
        init_viol = sum(sum(p.get("_init_violation", [])) for p in per_point)
        out["violations"] = int(viol)
        out["init_violations"] = int(init_viol)
        out["pass"] = viol == 0
    elif exp == "prop2-rank":
        k = int(spec.sweep[0])
        h_vals = np.asarray(per_point[0].get("rank-h", []))
        hbar_vals = np.asarray(per_point[0].get("rank-hbar", []))
        out["frac_rank_h_full"] = float(np.mean(h_vals == min(k, 5))) if h_vals.size else 0.0
        out["frac_rank_hbar_2"] = float(np.mean(hbar_vals == 2)) if hbar_vals.size else 0.0
        out["pass"] = out["frac_rank_h_full"] >= 0.95 and out["frac_rank_hbar_2"] >= 0.95
    elif exp == "oracle-suite":
        checks = {}
        for i, name in enumerate(spec.sweep):
            vals = per_point[i].get(str(name), [])
            checks[str(name)] = float(np.mean(vals)) if vals else 0.0
        out["check_pass_fraction"] = checks
        out["pass"] = all(v == 1.0 for v in checks.values())
    return out


def emit_plotdata(csv_path, out_dir=None):
    """Split an experiment CSV into per-method (x, y, yerr) series files."""
    out_dir = out_dir or os.path.dirname(os.path.abspath(csv_path))
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
