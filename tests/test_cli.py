import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynamech.cli import main
from dynamech.config import (
    ConfigError,
    RunConfig,
    build_environment,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
)

REPO = Path(__file__).resolve().parents[1]
POSTED = REPO / "configs" / "posted_price.cfg"
EXP_CONTROL = REPO / "configs" / "exponential_control.cfg"
SPONSORED2 = REPO / "configs" / "sponsored_search_2.cfg"


MINIMAL = """
{"environment": {"name": "sponsored_search", "params": {"k": 1, "cap": 2}}, "delta": 0.8}
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.delta == 0.8
    assert cfg.quad_nodes == 16
    assert cfg.master_seed == 0
    env = build_environment(cfg)
    assert env.k == 1 and env.delta == 0.8


def test_parse_rejects_out_of_range_delta():
    with pytest.raises(ConfigError, match="delta"):
        parse_config_text('{"environment": {"name": "finite_chain"}, "delta": 1.2}')


def test_parse_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text(
            '{"environment": {"name": "sponsored_search", "params": {"k": 1}},'
            ' "delta": 0.5, "frobnicate": 3}'
        )
    with pytest.raises(ConfigError, match="clicks"):
        parse_config_text(
            '{"environment": {"name": "sponsored_search", "params": {"clicks": 1}}, "delta": 0.5}'
        )


def test_parse_rejects_unknown_environment():
    with pytest.raises(ConfigError, match="lemonade_stand"):
        parse_config_text('{"environment": {"name": "lemonade_stand"}, "delta": 0.5}')


def test_config_round_trip():
    cfg = parse_config(POSTED)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


_YAML_POSTED = """
# configs/posted_price.cfg in block style
environment:
  name: finite_chain
  params:
    k: 1
    g: [[1.0]]
    h: [[1.0]]
    value: {variant: multiplicative, a: {form: linear}, b: [[1.0]], c: [0.0]}
    distribution: {name: uniform}
delta: 0.5
tail_eps: 1e-8  # YAML 1.1 reads this as a string; the float fields convert it
fee_rollouts: 64
audit_paths: 64
audit_fee_paths: 32
audit_episodes: 800
master_seed: 7
output_dir: out/posted_price
"""


def test_yaml_config_text_parses_like_its_json_twin():
    cfg = parse_config_text(_YAML_POSTED)
    assert cfg == parse_config(POSTED)
    assert config_hash(cfg) == config_hash(parse_config(POSTED))


def test_json_config_reads_dotless_exponents_as_numbers():
    # YAML 1.1 read 2e-1 as the string "2e-1"; JSON reads the number
    text = '{"environment": {"name": "sponsored_search", "params": {"k": 1, "theta_bar": 2e-1}}, "delta": 8e-1}'
    cfg = parse_config_text(text)
    assert cfg.delta == 0.8 and cfg.environment["params"]["theta_bar"] == 0.2


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_json_config_rejects_non_finite_numbers(tmp_path, capsys, token):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_config_text(f'{{"environment": {{"name": "finite_chain"}}, "delta": {token}}}')
    bad = tmp_path / "bad.cfg"
    bad.write_text(f'{{"environment": {{"name": "sponsored_search", "params": {{"k": 1}}}}, "delta": {token}}}')
    assert main(["--config", str(bad), "--out", str(tmp_path), "simulate"]) == 2
    err = capsys.readouterr().err
    assert "not a finite number" in err and "Traceback" not in err


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="environment"):
        parse_config_text('{"delta": 0.5}')
    with pytest.raises(ConfigError, match="delta"):
        parse_config_text('{"environment": {"name": "finite_chain"}}')


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text('{"environment": {"name": "finite_chain"}, "delta": 2.0}')
    assert main(["--config", str(bad), "simulate"]) == 2
    assert "delta" in capsys.readouterr().err


def _run(tmp_path, *args):
    return main(["--config", str(POSTED), "--out", str(tmp_path), *args])


def test_simulate_writes_deterministic_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run(out_a, "--seed", "7", "simulate") == 0
    assert _run(out_b, "--seed", "7", "simulate") == 0
    for name in ("transcript.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["seed"] == 7
    assert "config_hash" in summary
    header = (out_a / "transcript.csv").read_text().splitlines()
    assert header[0].startswith("# schema_version=1 config_hash=")
    assert header[1] == "t,theta_hat_0,e_hat_0,winner,payment,rho_0"


def test_simulate_seed_changes_output(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    _run(out_a, "--seed", "7", "simulate")
    _run(out_b, "--seed", "8", "simulate")
    assert (out_a / "summary.json").read_bytes() != (out_b / "summary.json").read_bytes()


def test_validate_env_negative_control_names_mhr(tmp_path, capsys):
    code = main(["--config", str(EXP_CONTROL), "--out", str(tmp_path), "validate-env"])
    out = capsys.readouterr().out
    assert code == 1
    assert "monotone_hazard" in out
    report = json.loads((tmp_path / "validate_env.json").read_text())
    assert not report["passed"]


def test_transform_and_index_tables(tmp_path):
    assert _run(tmp_path, "transform") == 0
    text = (tmp_path / "transform.csv").read_text()
    assert text.splitlines()[1] == "agent,report,rho,alpha,beta,dormant"
    assert _run(tmp_path, "index", "--agent", "0", "--report", "0.8") == 0
    lines = (tmp_path / "index.csv").read_text().splitlines()
    assert lines[1] == "e_label,rho_label,index"
    assert len(lines) == 3  # one state cell
    # dormant report refuses
    assert _run(tmp_path, "index", "--report", "0.3") == 1


def test_index_table_json_format(tmp_path):
    assert _run(tmp_path, "--format", "json", "index") == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert payload["rows"][0]["e_label"] == "e0"


def test_audit_subcommand_posted_price(tmp_path):
    assert _run(tmp_path, "audit", "--suite", "monotone") == 0
    payload = json.loads((tmp_path / "audit.json").read_text())
    assert payload["passed"]
    assert payload["results"][0]["name"] == "monotone_allocation"


def test_bound_subcommand(tmp_path):
    code = main(
        [
            "--config",
            str(POSTED),
            "--out",
            str(tmp_path),
            "--seed",
            "3",
            "bound",
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "bound.json").read_text())
    assert payload["passed"]


def test_worker_count_does_not_change_bytes(tmp_path):
    env = dict(os.environ)
    outputs = {}
    for workers in ("1", "2", "8"):
        out = tmp_path / f"w{workers}"
        env["DYNAMECH_THREADS"] = workers
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "dynamech.cli",
                "--config",
                str(POSTED),
                "--out",
                str(out),
                "--seed",
                "5",
                "simulate",
            ],
            env=env,
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = (
            (out / "transcript.csv").read_bytes(),
            (out / "summary.json").read_bytes(),
        )
    assert outputs["1"] == outputs["2"] == outputs["8"]


_NO_SCIPY_SCRIPT = """
import json, sys
from dynamech.cli import main

status = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))
print(json.dumps({"status": status, "loaded": loaded}))
"""


def test_no_cli_command_loads_scipy(tmp_path):
    # nor, on JSON configs, the YAML parser
    ar1 = tmp_path / "ar1.cfg"
    ar1.write_text(
        json.dumps(
            {
                "environment": {
                    "name": "ar1",
                    "params": {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1, "alloc_cap": 6},
                },
                "delta": 0.8,
                "audit_episodes": 2,
                "master_seed": 17,
            }
        )
    )
    runs = [
        (POSTED, "validate-env"),
        (POSTED, "transform"),
        (POSTED, "index"),
        (POSTED, "simulate"),
        (POSTED, "audit"),
        (POSTED, "bound"),
        (SPONSORED2, "simulate"),
        (SPONSORED2, "index"),
        (ar1, "bound"),
    ]
    argvs = [["--config", str(cfg), "--out", str(tmp_path / str(j)), cmd] for j, (cfg, cmd) in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(argvs)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["status"] == [0] * len(runs)
    assert result["loaded"] == []


def _finite_chain_config(params: dict, **extra) -> str:
    cfg = {"environment": {"name": "finite_chain", "params": params}, "delta": 0.5}
    cfg.update(extra)
    return json.dumps(cfg)


_VALUE = {"variant": "multiplicative", "b": [[1.0]], "c": [0.0]}


@pytest.mark.parametrize(
    "params, message",
    [
        ({"g": [[0.5]], "h": [[1.0]], "value": _VALUE}, "sums to"),
        ({"g": [[1.0]], "h": [[1.0]]}, "missing required key 'value'"),
    ],
    ids=["row-sum", "missing-value"],
)
def test_cli_environment_errors_exit_2(tmp_path, capsys, params, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_finite_chain_config(params))
    assert main(["--config", str(bad), "--out", str(tmp_path), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("count", [True, 2.5])
def test_cli_rejects_non_integer_count(tmp_path, capsys, count):
    bad = tmp_path / "bad.cfg"
    params = {"g": [[1.0]], "h": [[1.0]], "value": _VALUE}
    bad.write_text(_finite_chain_config(params, audit_paths=count))
    assert main(["--config", str(bad), "--out", str(tmp_path), "audit"]) == 2
    assert "audit_paths must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("agent", ["5", "-1"])
def test_cli_index_agent_out_of_range_exits_2(tmp_path, capsys, agent):
    argv = ["--config", str(SPONSORED2), "--out", str(tmp_path), "index", "--agent", agent]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--agent {agent}" in err and "Traceback" not in err
    assert not (tmp_path / "index.csv").exists()


@pytest.mark.parametrize(
    "flag, value", [("--report", "2.0"), ("--report", "nan"), ("--report", "-1"), ("--theta", "5")]
)
def test_cli_index_type_out_of_range_exits_2(tmp_path, capsys, flag, value):
    argv = ["--config", str(SPONSORED2), "--out", str(tmp_path), "index", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "index.csv").exists()


def test_cli_simulate_refuses_lone_arm_above_sweep_cutoff(tmp_path, capsys, monkeypatch):
    from dynamech import gittins

    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        json.dumps(
            {
                "environment": {"name": "sponsored_search", "params": {"k": 2, "cap": 2}},
                "delta": 0.8,
                "fee_rollouts": 2,
                "master_seed": 5,  # draws both agents active, so each prices the other
            }
        )
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "ok"), "simulate"]) == 0
    monkeypatch.setattr(gittins, "DENSE_SWEEP_MAX_STATES", 35)  # the arms have 36 states
    capsys.readouterr()
    assert main(["--config", str(cfg), "--out", str(tmp_path / "refused"), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "DENSE_SWEEP_MAX_STATES = 35" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


SPONSORED4 = REPO / "configs" / "sponsored_search_4.cfg"


def test_four_agent_simulate_prices_every_round_exactly(tmp_path):
    # the config's default seed draws four active agents, so every price
    # is W_{-i} over three 36-state arms
    runs = []
    for name in ("a", "b"):
        assert main(["--config", str(SPONSORED4), "--out", str(tmp_path / name), "simulate"]) == 0
        runs.append({f: (tmp_path / name / f).read_bytes() for f in ("summary.json", "transcript.csv")})
    assert runs[0] == runs[1]
    summary = json.loads(runs[0]["summary.json"])
    assert summary["dormant"] == [False] * 4
    assert summary["w_mode"] == "exact_dp"
    fees = summary["entry_fees"] + summary["entry_fee_se"] + [summary["revenue"]]
    assert all(math.isfinite(x) for x in fees)


@pytest.mark.parametrize(
    "config, command, status, files",
    [
        (POSTED, "simulate", 0, ("summary.json", "transcript.csv")),
        (POSTED, "audit", 0, ("audit.json",)),
        (EXP_CONTROL, "validate-env", 1, ("validate_env.json",)),
    ],
)
def test_committed_artifacts_match_a_fresh_run(tmp_path, config, command, status, files):
    # the files under out/ are what the CLI writes at each config's defaults
    committed = REPO / parse_config(config).output_dir
    assert main(["--config", str(config), "--out", str(tmp_path), command]) == status
    for name in files:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
