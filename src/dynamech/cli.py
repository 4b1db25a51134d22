"""Command-line front end: config ingestion, experiment orchestration,
deterministic output emission.

Subcommands: validate-env, transform, index, simulate, audit, bound.
Exit status: 0 on success, 1 on audit/validation failure, 2 on config
or argument errors, and on a DomainError a command raises.  Identical
(config, seed) pairs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import verification as ver
from .config import ConfigError, RunConfig, build_environment, check_seed, config_hash, parse_config
from .environments import DomainError, validate_assumptions
from .mechanism import MechanismRuntime, Truthful, run_episode

__all__ = ["main", "entry"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _csv_text(header: list[str], rows, meta: dict) -> str:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_table(path: Path, header, rows, meta: dict, fmt: str) -> None:
    if fmt == "csv":
        _write_text(path.with_suffix(".csv"), _csv_text(header, rows, meta))
    else:
        payload = dict(meta)
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        _write_text(path.with_suffix(".json"), _json_text(payload))


def _meta(cfg: RunConfig, seed: int) -> dict:
    return {"schema_version": cfg.schema_version, "config_hash": config_hash(cfg), "seed": seed}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate_env(cfg: RunConfig, env, out: Path, seed: int, fmt: str) -> int:
    report = validate_assumptions(env, grid=cfg.assumption_grid)
    payload = dict(_meta(cfg, seed))
    payload.update(report.to_dict())
    _write_text(out / "validate_env.json", _json_text(payload))
    for check in report.checks:
        marker = "pass" if check.passed else "FAIL"
        line = f"[{marker}] {check.name}"
        if check.detail:
            line += f" -- {check.detail}"
        print(line)
    return 0 if report.passed else 1


def _cmd_transform(cfg: RunConfig, env, out: Path, seed: int, fmt: str) -> int:
    runtime = MechanismRuntime(env)
    rows = []
    for i, agent in enumerate(env.agents):
        for r in np.linspace(0.0, agent.distribution.theta_bar, cfg.theta_grid_points):
            tr = runtime.transform(i, float(r))
            for rho in range(agent.public.n):
                if tr is None:
                    rows.append([i, float(r), agent.public.labels[rho], "", "", 1])
                else:
                    rows.append(
                        [i, float(r), agent.public.labels[rho], tr.alpha, float(tr.beta[rho]), 0]
                    )
    _emit_table(
        out / "transform",
        ["agent", "report", "rho", "alpha", "beta", "dormant"],
        rows,
        _meta(cfg, seed),
        fmt,
    )
    print(f"wrote transform table ({len(rows)} rows)")
    return 0


def _cmd_index(cfg: RunConfig, env, out: Path, seed: int, fmt: str, args) -> int:
    runtime = MechanismRuntime(env)
    agent_id = args.agent
    if not 0 <= agent_id < env.k:
        print(f"error: --agent {agent_id} is out of range (agents 0..{env.k - 1})", file=sys.stderr)
        return 2
    agent = env.agents[agent_id]
    theta_bar = agent.distribution.theta_bar
    for flag, x in (("--report", args.report), ("--theta", args.theta)):
        if x is not None and not 0.0 <= x <= theta_bar:  # nan fails both
            print(f"error: {flag} {x!r} is outside [0, theta_bar = {theta_bar!r}]", file=sys.stderr)
            return 2
    report = args.report if args.report is not None else theta_bar
    theta = args.theta if args.theta is not None else report
    tr = runtime.transform(agent_id, float(report))
    if tr is None:
        print(f"agent {agent_id} is dormant at report {report:g}; no index table")
        return 1
    flat = runtime.index_flat(agent_id, tr, float(theta))
    rows = []
    for e in range(agent.private.n):
        for rho in range(agent.public.n):
            rows.append(
                [agent.private.labels[e], agent.public.labels[rho], float(flat[e * agent.public.n + rho])]
            )
    meta = _meta(cfg, seed)
    meta.update({"agent": agent_id, "report": report, "theta": theta})
    _emit_table(out / "index", ["e_label", "rho_label", "index"], rows, meta, fmt)
    print(f"wrote index table ({len(rows)} entries)")
    return 0


def _cmd_simulate(cfg: RunConfig, env, out: Path, seed: int, fmt: str) -> int:
    runtime = MechanismRuntime(env)
    transcript = run_episode(
        env,
        [Truthful()] * env.k,
        seed,
        cfg.horizon,
        runtime=runtime,
        fee_rollouts=cfg.fee_rollouts,
        tail_eps=cfg.tail_eps,
    )
    rows = []
    for r in transcript.rounds:
        row = [r.t]
        for i in range(env.k):
            row.append(r.theta_hat[i])
        for i in range(env.k):
            row.append(env.agents[i].private.labels[r.e_hat[i]])
        row.append(r.winner)
        row.append(r.payment)
        for i in range(env.k):
            row.append(env.agents[i].public.labels[r.rho[i]])
        rows.append(row)
    header = (
        ["t"]
        + [f"theta_hat_{i}" for i in range(env.k)]
        + [f"e_hat_{i}" for i in range(env.k)]
        + ["winner", "payment"]
        + [f"rho_{i}" for i in range(env.k)]
    )
    _emit_table(out / "transcript", header, rows, _meta(cfg, seed), fmt)
    summary = dict(_meta(cfg, seed))
    summary.update(
        {
            "revenue": transcript.revenue,
            "utilities": list(transcript.utilities),
            "entry_fees": list(transcript.entry_fees),
            "entry_fee_se": list(transcript.entry_fee_se),
            "fee_mode": transcript.fee_mode,
            "w_mode": transcript.w_mode,
            "theta": list(transcript.theta),
            "theta_hat0": list(transcript.theta_hat0),
            "dormant": list(transcript.dormant),
            "horizon": transcript.horizon,
            "tail_bound": transcript.tail_bound,
        }
    )
    _write_text(out / "summary.json", _json_text(summary))
    print(f"simulated {transcript.horizon} rounds; revenue {transcript.revenue:.6g}")
    return 0


_SUITES = ("ic", "ir", "envelope", "bound", "monotone", "coupling")


def _run_suite(name: str, cfg: RunConfig, env, runtime, seed: int):
    if name == "ic":
        return ver.audit_ic(
            env,
            seeds=(seed,),
            paths=cfg.audit_paths,
            fee_paths=cfg.audit_fee_paths,
            runtime=runtime,
        )
    if name == "ir":
        return ver.audit_ir(
            env,
            seeds=(seed,),
            paths=cfg.audit_paths,
            fee_paths=cfg.audit_fee_paths,
            runtime=runtime,
        )
    if name == "envelope":
        results = []
        for i in range(env.k):
            grid = ver.theta_grid(env, i, 3, runtime=runtime)
            theta = ver._pinned_types(env, i, grid[-1])
            results.append(
                ver.audit_envelope(
                    env,
                    theta,
                    i,
                    seeds=(seed,),
                    paths=cfg.audit_paths,
                    fee_paths=cfg.audit_fee_paths,
                    runtime=runtime,
                )
            )
        return results
    if name == "bound":
        return ver.audit_revenue_bound(
            env, episodes=cfg.audit_episodes, seeds=(seed,), runtime=runtime
        )
    if name == "monotone":
        return ver.audit_monotone_allocation(env, runtime=runtime)
    if name == "coupling":
        results = []
        for i in range(env.k):
            tb = env.agents[i].distribution.theta_bar
            z = runtime.threshold(i)
            hi = min(tb, z + 0.6 * (tb - z) if z < tb else tb)
            lo = max(z + 0.2 * (tb - z), 0.0)
            theta = ver._pinned_types(env, i, hi)
            theta_lo = list(theta)
            theta_lo[i] = lo
            results.append(
                ver.audit_allocation_time_coupling(
                    env,
                    theta,
                    theta_lo,
                    i,
                    seeds=tuple(range(cfg.coupling_seeds)),
                    runtime=runtime,
                )
            )
        return results
    raise ConfigError(f"unknown audit suite {name!r}")


def _cmd_audit(cfg: RunConfig, env, out: Path, seed: int, fmt: str, args) -> int:
    runtime = MechanismRuntime(env)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    for suite in suites:
        chunk = _run_suite(suite, cfg, env, runtime, seed)
        if isinstance(chunk, list):
            results.extend(chunk)
        else:
            results.append(chunk)
    payload = dict(_meta(cfg, seed))
    payload["results"] = [r.to_dict() for r in results]
    payload["passed"] = all(r.passed for r in results)
    _write_text(out / "audit.json", _json_text(payload))
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"[{status}] {r.name:<{width}}  observed={r.observed:+.6g}  "
            f"threshold={r.threshold:.3g}  se={r.std_error:.3g}"
        )
        if not r.passed and r.detail:
            print(f"       {r.detail}")
    return 0 if payload["passed"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it as it was, and each build leaves cyclic garbage behind."""
    parser = argparse.ArgumentParser(prog="dynamech", description=__doc__)
    parser.add_argument("--config", required=True, help="path to a config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate-env")
    sub.add_parser("transform")
    p_index = sub.add_parser("index")
    p_index.add_argument("--agent", type=int, default=0)
    p_index.add_argument("--report", type=float, default=None)
    p_index.add_argument("--theta", type=float, default=None)
    sub.add_parser("simulate")
    p_audit = sub.add_parser("audit")
    p_audit.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    sub.add_parser("bound")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_seed("--seed", args.seed)
        cfg = parse_config(args.config)
        env = build_environment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = cfg.master_seed if args.seed is None else args.seed
    out = Path(args.out if args.out is not None else cfg.output_dir)
    try:
        if args.command == "validate-env":
            return _cmd_validate_env(cfg, env, out, seed, args.format)
        if args.command == "transform":
            return _cmd_transform(cfg, env, out, seed, args.format)
        if args.command == "index":
            return _cmd_index(cfg, env, out, seed, args.format, args)
        if args.command == "simulate":
            return _cmd_simulate(cfg, env, out, seed, args.format)
        if args.command == "audit":
            return _cmd_audit(cfg, env, out, seed, args.format, args)
        if args.command == "bound":
            runtime = MechanismRuntime(env)
            result = _run_suite("bound", cfg, env, runtime, seed)
            payload = dict(_meta(cfg, seed))
            payload["results"] = [result.to_dict()]
            payload["passed"] = result.passed
            _write_text(out / "bound.json", _json_text(payload))
            print(
                f"[{'pass' if result.passed else 'FAIL'}] {result.name}  "
                f"observed={result.observed:+.6g} threshold={result.threshold:.3g}"
            )
            return 0 if result.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
