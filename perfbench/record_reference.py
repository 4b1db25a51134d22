"""Record the input pools and reference numbers in ``reference.json``.

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root.  For each workload this generates
``workloads.POOL`` input variants from fixed seeds, runs each once, and
stores its numbers together with the error terms the correctness check
scales its tolerances by:

- ``fee_quad_error`` (sponsored-simulate): the node-doubling quadrature
  error of each entry fee, from ``entry_fee_p0`` on the same inputs;
- ``price_se`` (sponsored4-price): the Monte-Carlo standard error of each
  round's price.  The ``W_{-i}`` rollout reports none, so this is the
  standard error of ``weighted_welfare``'s index-policy rollout of the
  same arms from the same joint state, mapped through the price formula.

Recording again after a change that moves outputs would hide that move
from the check; do it only when the inputs themselves change.
"""

from __future__ import annotations

import contextlib
import json
import platform
import random
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def _inputs(name: str) -> list[dict]:
    if name == "posted-audit":
        return [{"seed": 100 + v} for v in range(workloads.POOL)]
    if name == "ar1-bound":
        # the types the bound audit draws for its episodes: the check
        # compares their index tables and a fee-less episode on each
        from dynamech.config import build_environment, parse_config_text
        from dynamech.rng import substream

        cfg = workloads.CONFIGS[name]
        env = build_environment(parse_config_text(json.dumps(cfg)))
        out = []
        for v in range(workloads.POOL):
            seed = 400 + v
            types = [
                [env.agents[i].distribution.sample(substream(seed, "rev-types", s, i)) for i in range(env.k)]
                for s in range(cfg["audit_episodes"])
            ]
            out.append({"seed": seed, "episode_types": types})
        return out
    if name == "sponsored4-price":
        out = []
        for v in range(workloads.POOL):
            rng = random.Random(300 + v)
            out.append({"seed": 300 + v, "theta": [round(rng.uniform(0.55, 0.95), 4) for _ in range(4)]})
        return out
    if name == "sponsored-simulate":
        # CLI seeds whose drawn types leave both agents above the dormancy
        # threshold, so that every operation builds the index table and
        # estimates both fees
        from dynamech.config import build_environment, parse_config_text
        from dynamech.rng import substream
        from dynamech.virtual import dormancy_threshold

        env = build_environment(parse_config_text(json.dumps(workloads.CONFIGS[name])))
        thresholds = [dormancy_threshold(env, i) for i in range(env.k)]
        out, seed = [], 200
        while len(out) < workloads.POOL:
            theta = [env.agents[i].distribution.sample(substream(seed, "types", i)) for i in range(env.k)]
            if all(t > z for t, z in zip(theta, thresholds)):
                out.append({"seed": seed})
            seed += 1
        return out
    raise KeyError(name)


def _fee_quad_errors(cfg_path: Path, seed: int, numbers: dict) -> list[float]:
    from dynamech.config import build_environment, parse_config
    from dynamech.gittins import tail_horizon
    from dynamech.mechanism import MechanismRuntime, entry_fee_p0

    cfg = parse_config(cfg_path)
    env = build_environment(cfg)
    runtime = MechanismRuntime(env)
    horizon = tail_horizon(env.delta, env.k, env.v_max, cfg.tail_eps)
    out = []
    for i in range(env.k):
        est = entry_fee_p0(env, numbers["theta"], i, cfg.quad_nodes, cfg.fee_rollouts, seed, horizon, runtime)
        if est.mean != numbers["entry_fees"][i]:
            raise RuntimeError(f"fee {i} recomputed as {est.mean!r}, simulate gave {numbers['entry_fees'][i]!r}")
        out.append(est.quad_error)
    return out


def _price_ses(cfg_path: Path, numbers: dict) -> list[float]:
    from dynamech.config import build_environment, parse_config
    from dynamech.gittins import weighted_welfare
    from dynamech.virtual import transform_or_dormant

    env = build_environment(parse_config(cfg_path))
    theta = numbers["theta"]
    out = []
    for w, p, e_hat, rho in zip(numbers["winners"], numbers["payments"], numbers["e_hat"], numbers["rho"]):
        if w == 0:
            out.append(0.0)
            continue
        tr = transform_or_dormant(env, w - 1, theta[w - 1])
        est = weighted_welfare(env, theta, theta, e_hat, rho, exclude=w - 1, mode="rollout")
        se = (1.0 - env.delta) * est.std_error / tr.alpha
        implied_w = (p * tr.alpha + float(tr.beta[rho[w - 1]])) / (1.0 - env.delta)
        if abs(implied_w - est.mean) > 5.0 * est.std_error:
            print(f"  warning: W={implied_w:.6g} but the rollout check gives {est.mean:.6g} +- {est.std_error:.3g}")
        out.append(se)
    return out


def record(name: str, scratch: Path) -> list[dict]:
    cfg_path = workloads.write_config(name, scratch)
    entries = []
    for v, inputs in enumerate(_inputs(name)):
        outcome = workloads.execute(name, cfg_path, inputs, scratch / "run", contextlib.nullcontext)
        entry = {"inputs": inputs, "numbers": outcome.numbers}
        if name in ("sponsored-simulate", "sponsored4-price", "ar1-bound"):
            entry["delta"] = workloads.CONFIGS[name]["delta"]
        if name == "sponsored-simulate":
            entry["fee_quad_error"] = _fee_quad_errors(cfg_path, inputs["seed"], outcome.numbers)
        if name == "sponsored4-price":
            entry["price_se"] = _price_ses(cfg_path, outcome.numbers)
        errors = workloads.check(name, outcome.numbers, entry)
        if errors:
            raise RuntimeError(f"{name}[{v}] fails its own reference: {errors}")
        print(f"{name}[{v}] {inputs} status={outcome.status}", flush=True)
        entries.append(entry)
    return entries


def main(argv: list[str]) -> int:
    import numpy
    import scipy

    names = argv or list(workloads.NAMES)
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        data[name] = record(name, HERE / "out" / "record")
    data["recorded_on"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
