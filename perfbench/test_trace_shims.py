"""The benchmark's trace shims never change what dynamech writes, and a
hook point the library no longer has reads as 0 calls."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from dynamech import cli, mechanism, verification  # noqa: E402

TINY = {
    "posted-audit": (
        {
            "environment": {
                "name": "finite_chain",
                "params": {
                    "k": 1,
                    "g": [[1.0]],
                    "h": [[1.0]],
                    "value": {"variant": "multiplicative", "a": {"form": "linear"}, "b": [[1.0]], "c": [0.0]},
                },
            },
            "delta": 0.5,
            "audit_paths": 4,
            "audit_fee_paths": 2,
            "audit_episodes": 10,
            "coupling_seeds": 4,
        },
        ["audit", "--suite", "all"],
    ),
    "sponsored-simulate": (
        {
            "environment": {"name": "sponsored_search", "params": {"k": 2, "cap": 1}},
            "delta": 0.8,
            "fee_rollouts": 2,
        },
        ["simulate"],
    ),
}


def _cli_tree(cfg: Path, command: list[str], out: Path) -> dict[str, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["--config", str(cfg), "--seed", "3", "--out", str(out), *command])
    assert status in (0, 1)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_writes_identical_artifacts(tmp_path, name):
    config, command = TINY[name]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(json.dumps(config))
    plain = _cli_tree(cfg, command, tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _cli_tree(cfg, command, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert plain and traced == plain
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mechanism.engine.episodes"] > 0
    assert metrics["rng.draw_pair.calls"] > 0
    assert not tracer.missing


def test_uninstall_restores_every_binding():
    before = (mechanism._run_rounds, verification._run_rounds, mechanism.MechanismRuntime.__dict__["w_minus"])
    tracer = tracing.Tracer()
    tracer.install()
    assert verification._run_rounds is not before[1]
    tracer.uninstall()
    after = (mechanism._run_rounds, verification._run_rounds, mechanism.MechanismRuntime.__dict__["w_minus"])
    assert after == before


def test_removed_hook_points_read_as_zero_calls(tmp_path):
    renamed = {"_run_rounds": "_run_rounds_gone", "MechanismRuntime._w_minus_rollout": "MechanismRuntime._gone"}
    hooks = [
        tracing.Hook(h.name, h.module, renamed.get(h.attr, h.attr), h.leaf, h.arg, h.keep_result)
        for h in tracing.HOOKS
    ]
    hooks.append(tracing.Hook("gittins.joint_optimal_value", "dynamech.no_such_module", "joint_optimal_value"))
    config, command = TINY["sponsored-simulate"]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(json.dumps(config))
    tracer = tracing.Tracer(hooks)
    tracer.install()
    try:
        _cli_tree(cfg, command, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert {"mechanism.engine", "mechanism.w_minus_rollout"} <= set(tracer.missing)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mechanism.engine.episodes"] == 0
    assert metrics["mechanism.w_minus_rollout.calls"] == 0
    assert metrics["mechanism.fee_quadrature.calls"] > 0
