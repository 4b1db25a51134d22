import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from dynamech import cli
from dynamech.cli import main
from dynamech.config import (
    ConfigError,
    RunConfig,
    build_environment,
    config_hash,
    parse_config,
    parse_config_text,
)

REPO = Path(__file__).resolve().parents[1]
POSTED = REPO / "configs" / "posted_price.cfg"
EXP_CONTROL = REPO / "configs" / "exponential_control.cfg"
AR1_ADDITIVE = REPO / "configs" / "ar1_additive.cfg"
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
    with pytest.raises(ConfigError, match="index_tol"):
        parse_config_text(
            '{"environment": {"name": "sponsored_search", "params": {"k": 1}},'
            ' "delta": 0.5, "index_tol": 1e-9}'
        )
    with pytest.raises(ConfigError, match="clicks"):
        parse_config_text(
            '{"environment": {"name": "sponsored_search", "params": {"clicks": 1}}, "delta": 0.5}'
        )


def test_parse_rejects_unknown_environment():
    with pytest.raises(ConfigError, match="lemonade_stand"):
        parse_config_text('{"environment": {"name": "lemonade_stand"}, "delta": 0.5}')


def serialize_config(cfg: RunConfig) -> str:
    """The config as indented JSON, for the round-trip test."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


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


AR1 = """
{"environment": {"name": "ar1", "params": {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1,
 "alloc_cap": 6}}, "delta": 0.8, "fee_rollouts": 16}
"""


def test_reused_runtime_does_not_change_bytes(tmp_path, monkeypatch):
    # additive values: every (report, type) key sweeps its own arm on the
    # agent model's shared rows; seed 5 from a fresh process, then in this
    # one through an environment and runtime that other seeds keep warm
    cfg_path = tmp_path / "ar1.cfg"
    cfg_path.write_text(AR1)

    def argv(seed: str, out: str) -> list[str]:
        return ["--config", str(cfg_path), "--seed", seed, "--out", str(tmp_path / out), "--format", "json",
                "simulate"]

    proc = subprocess.run(
        [sys.executable, "-m", "dynamech.cli", *argv("5", "fresh")],
        env=dict(os.environ),
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    env = build_environment(parse_config(cfg_path))
    runtime = cli.MechanismRuntime(env)
    monkeypatch.setattr(cli, "build_environment", lambda _cfg: env)
    monkeypatch.setattr(cli, "MechanismRuntime", lambda _env: runtime)
    for seed, out in (("3", "warm"), ("5", "reused"), ("4", "warm"), ("5", "again")):
        assert main(argv(seed, out)) == 0
    read = {
        out: ((tmp_path / out / "transcript.json").read_bytes(), (tmp_path / out / "summary.json").read_bytes())
        for out in ("fresh", "reused", "again")
    }
    assert read["fresh"] == read["reused"] == read["again"]


_NO_SCIPY_SCRIPT = """
import json, sys
from dynamech import cli
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



def _scoped(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(scope, node) for each node under ``tree`` that is not a class or
    function, scope being the names of the enclosing classes and
    functions."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(node, scope + (node.name,))
        else:
            yield scope, node
            yield from _scoped(node, scope)


def _src_modules():
    return [(path.name, ast.parse(path.read_text())) for path in sorted((REPO / "src" / "dynamech").glob("*.py"))]


def _scipy_imports(tree: ast.AST):
    """(scope, module) for each scipy import under ``tree``."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        yield from ((scope, m) for m in modules if m == "scipy" or m.startswith("scipy."))


def test_the_only_scipy_import_in_src_is_compiled_arm_transition():
    found = [(name, *scope, module) for name, tree in _src_modules() for scope, module in _scipy_imports(tree)]
    assert found == [("gittins.py", "CompiledArm", "transition", "scipy.sparse")]


def test_the_package_imports_itself_only_relatively():
    # scripts/ab_inprocess.py loads two trees' packages in one process,
    # each under a name of its own: an absolute ``dynamech`` import in
    # one of them would reach the other's modules
    relative, absolute = 0, []
    for name, tree in _src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                relative += 1
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            absolute += [(name, node.lineno, m) for m in modules if m.split(".")[0] == "dynamech"]
    assert relative > 0 and absolute == []


def _form_checks(tree: ast.AST):
    """The scope of each ``isinstance`` check against a value form class
    under ``tree``."""
    forms = {"AdditiveValue", "MultiplicativeValue"}
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", getattr(kind, "attr", None)) in forms for kind in kinds):
                yield scope


def test_value_form_branches_only_where_the_mathematics_differs():
    # every reader of v, dv/dtheta, A or A' goes through the value classes
    # (``table``, ``slope``, ``a_row``, ``da_row``, ``weights``); a branch on
    # the form is left only in the checks and the transform, whose formulas
    # differ by form
    found = sorted((name, ".".join(scope)) for name, tree in _src_modules() for scope in _form_checks(tree))
    assert found == [
        ("environments.py", "AgentModel.__post_init__"),
        ("environments.py", "_check_values"),
        ("environments.py", "_value_bound"),
        ("mechanism.py", "MechanismRuntime.__init__"),
        ("virtual.py", "_affine"),
    ]


def _config(environment: dict, **extra) -> str:
    cfg = {"environment": environment, "delta": 0.5}
    cfg.update(extra)
    return json.dumps(cfg)


_VALUE = {"variant": "multiplicative", "b": [[1.0]], "c": [0.0]}


_POSTED_PARAMS = {"g": [[1.0]], "h": [[1.0]], "value": _VALUE}


def _chain(params: dict) -> dict:
    return {"name": "finite_chain", "params": params}


def _sponsored(**changes) -> dict:
    """``sponsored_search_2.cfg``'s environment at cap 2, with ``changes``."""
    params = {"k": 2, "theta_bar": 1.0, "click_prior": [1, 1], "purchase_prior": [1, 1], "cap": 2}
    return {"name": "sponsored_search", "params": {**params, **changes}}


def _ar1(**changes) -> dict:
    """``ar1_additive.cfg``'s environment, with ``changes``."""
    params = {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1, "alloc_cap": 6}
    return {"name": "ar1", "params": {**params, **changes}}


_RATE = {"name": "capped_exponential", "rate": 0}


def _value_a(a) -> dict:
    """``posted_price.cfg``'s chain with value form ``a``."""
    return _chain({**_POSTED_PARAMS, "value": {**_VALUE, "a": a}})


# a negative seed would reach numpy's SeedSequence, which refuses it with a
# traceback; the parameter rows raised ZeroDivisionError, IndexError or a
# math domain error, OverflowError (an int past the float range), named
# no key, or ran with a count or type bound rounded or ignored (an ar1
# ``coeff`` of false ran as 0.0)
@pytest.mark.parametrize(
    "environment, extra, argv, message",
    [
        (_chain({"g": [[0.5]], "h": [[1.0]], "value": _VALUE}), {}, ["simulate"], "sums to"),
        (_chain({"g": [[1.0]], "h": [[1.0]]}), {}, ["simulate"], "missing required key 'value'"),
        (_chain(_POSTED_PARAMS), {"master_seed": -1}, ["simulate"], "master_seed must be a non-negative integer"),
        (_chain(_POSTED_PARAMS), {"master_seed": -1}, ["bound"], "master_seed must be a non-negative integer"),
        (_chain(_POSTED_PARAMS), {}, ["--seed", "-1", "simulate"], "--seed must be a non-negative integer"),
        (_chain(_POSTED_PARAMS), {}, ["--seed", "-1", "bound"], "--seed must be a non-negative integer"),
        (_chain(_POSTED_PARAMS), {}, ["--seed", "-3", "audit", "--suite", "ic"], "--seed must be a non-negative integer"),
        (_sponsored(k=1.5), {}, ["simulate"], "k must be an integer >= 1, got 1.5"),
        (_sponsored(k=True), {}, ["simulate"], "k must be an integer >= 1, got True"),
        (_sponsored(cap=2.5), {}, ["simulate"], "cap must be an integer >= 0, got 2.5"),
        (_sponsored(cap=-2), {}, ["simulate"], "cap must be an integer >= 0, got -2"),
        (_sponsored(theta_bar=-1), {}, ["simulate"], "theta_bar must be a positive finite number, got -1"),
        (_sponsored(theta_bar=0), {}, ["validate-env"], "theta_bar must be a positive finite number, got 0"),
        (_sponsored(theta_bar=1e308), {}, ["simulate"], "tail scale k * v_max / (1 - delta) overflows"),
        (_sponsored(click_prior=[0, 0]), {}, ["simulate"], "click_prior[0] must be a positive finite number"),
        (_sponsored(click_prior=[1]), {}, ["simulate"], "click_prior must be a pair of positive numbers"),
        (_chain({**_POSTED_PARAMS, "value": {**_VALUE, "b": [[1e308]]}}), {}, ["simulate"], "tail scale"),
        (_chain({**_POSTED_PARAMS, "value": {**_VALUE, "b": [1.0]}}), {}, ["simulate"], "value.b must be a non-empty 2-d table"),
        (_chain({**_POSTED_PARAMS, "distribution": _RATE}), {}, ["simulate"], "distribution.rate must be"),
        (_chain({**_POSTED_PARAMS, "distribution": {**_RATE, "rate": -1}}), {}, ["simulate"], "distribution.rate"),
        (_ar1(grid_step=0), {}, ["simulate"], "grid_step must be a positive finite number, got 0"),
        (_ar1(alloc_cap=2.5), {}, ["simulate"], "alloc_cap must be an integer >= 0, got 2.5"),
        (_ar1(shock=[]), {}, ["simulate"], "shock must be a non-empty table of finite numbers"),
        (_value_a({"form": "power", "p": -1}), {}, ["validate-env"], "value.a.p must be a positive finite number, got -1"),
        (_value_a({"form": "power", "p": "x"}), {}, ["simulate"], "value.a.p must be a positive finite number, got 'x'"),
        (_value_a({"form": "affine", "scale": True}), {}, ["simulate"], "value.a.scale must be a finite number, got True"),
        (_value_a(5), {}, ["simulate"], "value.a must be a mapping, got 5"),
        (_chain({**_POSTED_PARAMS, "e_labels": 5}), {}, ["simulate"], "e_labels must be a list of strings, got 5"),
        (_chain({**_POSTED_PARAMS, "rho_labels": [1]}), {}, ["simulate"], "rho_labels must be a list of strings, got [1]"),
        (_sponsored(theta_bar=10**400), {}, ["simulate"], "theta_bar must be a positive finite number, got 1000"),
        (_ar1(coeff=10**400), {}, ["simulate"], "coeff must be a finite number, got 1000"),
        (_ar1(coeff="x"), {}, ["simulate"], "coeff must be a finite number, got 'x'"),
        (_ar1(coeff=[0.5]), {}, ["simulate"], "coeff must be a finite number, got [0.5]"),
        (_ar1(coeff=None), {}, ["simulate"], "coeff must be a finite number, got None"),
        (_ar1(coeff=False), {}, ["simulate"], "coeff must be a finite number, got False"),
        (_ar1(coeff=True), {}, ["simulate"], "coeff must be a finite number, got True"),
        (_ar1(coeff=1), {}, ["simulate"], "coeff must lie in [0, 1), got 1"),
    ],
    ids=[
        "row-sum", "missing-value", "config-seed-simulate", "config-seed-bound",
        "flag-seed-simulate", "flag-seed-bound", "flag-seed-audit",
        "k-float", "k-bool", "cap-float", "cap-negative", "theta_bar-negative", "theta_bar-zero",
        "theta_bar-overflow", "prior-zero", "prior-short", "b-overflow", "b-1d", "rate-zero",
        "rate-negative", "grid_step-zero", "alloc_cap-float", "shock-empty",
        "power-p-negative", "power-p-string", "affine-scale-bool", "a-not-mapping",
        "e_labels-int", "rho_labels-int", "theta_bar-int-overflow",
        "coeff-int-overflow", "coeff-string", "coeff-list", "coeff-null", "coeff-false", "coeff-true",
        "coeff-one",
    ],
)
def test_cli_environment_errors_exit_2(tmp_path, capsys, environment, extra, argv, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_config(environment, **extra))
    assert main(["--config", str(bad), "--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not any(tmp_path.glob("*.json")) and not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("count", [True, 2.5])
def test_cli_rejects_non_integer_count(tmp_path, capsys, count):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_config(_chain(_POSTED_PARAMS), audit_paths=count))
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


@pytest.mark.parametrize(
    "command", [["simulate"], ["index", "--agent", "0"]], ids=["simulate", "index"]
)
def test_cli_simulate_refuses_lone_arm_above_sweep_cutoff(tmp_path, capsys, monkeypatch, command):
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
    assert main(["--config", str(cfg), "--out", str(tmp_path / "ok"), *command]) == 0
    monkeypatch.setattr(gittins, "DENSE_SWEEP_MAX_STATES", 35)  # the arms have 36 states
    capsys.readouterr()
    assert main(["--config", str(cfg), "--out", str(tmp_path / "refused"), *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "DENSE_SWEEP_MAX_STATES = 35" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [["simulate"], ["audit", "--suite", "all"], ["bound"]])
def test_no_additive_key_gets_both_a_start_sweep_and_a_full_sweep(tmp_path, monkeypatch, command):
    # each (agent, report, theta) key is swept one way: whole, for a
    # record that a price reads, or over the states reachable from state
    # 0, for a table that no price reads.  A fee's value run comes before
    # its walk, so the walk reads the records that its prices built.
    # That holds across all of simulate and bound.  The audits' cells
    # come one after another: a later cell may price a key that an
    # earlier walk probed (where agent i ties an identical opponent's
    # type) or read unpriced a key whose record has left the cache, so
    # there it is checked per fee computation
    from dynamech import mechanism as mech
    from dynamech import verification as ver

    keys, kinds, scope = {}, {}, [0]
    compile_arm, hit_discounts, start_indices = mech.compile_arm, mech.hit_discounts, mech.start_indices
    fee_quadrature = mech.fee_quadrature
    per_fee = command == ["audit", "--suite", "all"]

    def keyed(env, agent_id, transform, theta):
        arm = compile_arm(env, agent_id, transform, theta)
        keys[id(arm)] = (agent_id, transform.pegged_report, theta)
        return arm

    def logged(kind, sweep):
        return lambda arm: kinds.setdefault((scope[0], keys.pop(id(arm))), set()).add(kind) or sweep(arm)

    def scoped(*args, **kwargs):
        scope[0] += 1
        try:
            return fee_quadrature(*args, **kwargs)
        finally:
            scope[0] += 1  # what follows the call is apart from it

    monkeypatch.setattr(mech, "compile_arm", keyed)
    monkeypatch.setattr(mech, "hit_discounts", logged("full", hit_discounts))
    monkeypatch.setattr(mech, "start_indices", logged("start", start_indices))
    if per_fee:
        monkeypatch.setattr(mech, "fee_quadrature", scoped)
        monkeypatch.setattr(ver, "fee_quadrature", scoped)
    assert main(["--config", str(AR1_ADDITIVE), "--out", str(tmp_path), *command]) == 0
    assert [key for key, both in kinds.items() if len(both) > 1] == []
    swept = [kind for (at, _), both in kinds.items() for kind in both if at % 2 or not per_fee]
    assert swept.count("start") > 0 and (swept.count("full") > 0) == (command != ["bound"])


def test_start_sweeps_refuse_by_the_full_arm_size(tmp_path, capsys, monkeypatch):
    # ``bound`` on additive values sweeps only the 7 states reachable
    # from state 0, and still refuses the 35-state arm as a whole sweep would
    from dynamech import gittins

    monkeypatch.setattr(gittins, "DENSE_SWEEP_MAX_STATES", 34)
    assert main(["--config", str(AR1_ADDITIVE), "--out", str(tmp_path), "bound"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: index sweep refused: 35 states exceeds DENSE_SWEEP_MAX_STATES = 34")
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


def test_sponsored_simulate_builds_no_csr_and_runs_no_tarjan(tmp_path, builds):
    # index builds, prices, fees and audits read the kernels
    # (``AgentModel.graph``), never the scipy transition matrix; the
    # sponsored-search, posted-price and AR(1) chains never step to a
    # lower state
    built, reached = builds
    for config, argv in ((SPONSORED2, ["simulate"]), (POSTED, ["audit", "--suite", "all"]), (AR1_ADDITIVE, ["bound"])):
        assert main(["--config", str(config), "--out", str(tmp_path / config.stem), *argv]) == 0
        assert built == [] and reached == [], config.stem


@pytest.mark.parametrize(
    "config, command, status, files",
    [
        (POSTED, "simulate", 0, ("summary.json", "transcript.csv")),
        (POSTED, "audit", 0, ("audit.json",)),
        (EXP_CONTROL, "validate-env", 1, ("validate_env.json",)),
        # additive values: the fee's table walk and the additive index builds
        (AR1_ADDITIVE, "simulate", 0, ("summary.json", "transcript.csv")),
        (AR1_ADDITIVE, "bound", 0, ("bound.json",)),
    ],
)
def test_committed_artifacts_match_a_fresh_run(tmp_path, config, command, status, files):
    # the files under out/ are what the CLI writes at each config's defaults
    committed = REPO / parse_config(config).output_dir
    assert main(["--config", str(config), "--out", str(tmp_path), command]) == status
    for name in files:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


_REPEATED = [
    ["validate-env"],
    ["transform"],
    ["--format", "json", "index", "--agent", "0"],
    ["index", "--agent", "3"],  # out of range: exit 2
    ["simulate"],
    ["audit", "--suite", "ir"],
    ["--format", "xml", "simulate"],  # refused by the parser: exit 2
    ["bound"],
]


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # main reuses one parser per process: every call, in any order, gives
    # the artifacts, exit code, stdout and stderr of a process of its own
    def argv(out, command):
        return ["--config", str(POSTED), "--seed", "3", "--out", str(out), *command]

    fresh = []
    for n, command in enumerate(_REPEATED):
        out = tmp_path / f"fresh{n}"
        proc = subprocess.run(
            [sys.executable, "-m", "dynamech.cli", *argv(out, command)],
            cwd=REPO, capture_output=True, text=True,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr, _tree(out) if out.exists() else {}))
    for rep in range(2):
        order = range(len(_REPEATED)) if rep == 0 else reversed(range(len(_REPEATED)))
        for n in order:
            out = tmp_path / f"in{rep}-{n}"
            try:
                status = main(argv(out, _REPEATED[n]))
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            got = (status, captured.out, captured.err, _tree(out) if out.exists() else {})
            assert got == fresh[n], _REPEATED[n]
    assert [f[0] for f in fresh] == [0, 0, 0, 2, 0, 0, 2, 0]
