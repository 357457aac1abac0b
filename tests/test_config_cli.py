import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moser_transport
from moser_transport import ConfigurationError
from moser_transport.cli import main
from moser_transport.config import (
    build_envelope,
    build_family,
    parse_config,
)

CONSTANT_CFG = """
# identity fixture
[domain]
kind = interval

[family]
name = constant
k = 2

[pipeline]
grid = 256
steps = 64
mode = moser_only
floor = 0.5
seed = 7
x_samples = 3
floors = 1e-1, 1e-2

[outputs]
report = report.json
csv_dir = csv
"""

AFFINE_CFG = """
[domain]
kind = interval

[family]
name = affine
k = 2

[pipeline]
grid = 256
steps = 64
mode = full
seed = 11
x_samples = 3
floors = 1e-1, 1e-2
v = 1/4

[outputs]
report = report.json
csv_dir = csv
"""


CYLINDER_CFG = """
[domain]
kind = cylinder
circumference = 1

[family]
expression = 1 + 0.2*x*cos(2*pi*a)*cos(pi*t)
x_lo = -1
x_hi = 1
k = 2

[pipeline]
grid = 32
steps = 16
mode = moser_only
floor = 0.5
seed = 3
x_samples = 3
floors = 1e-1, 1e-2
samples = 16384
bins = 16
tol_push = 2e-2

[outputs]
report = report.json
csv_dir = csv
"""


def test_parse_basic_sections():
    cfg = parse_config(CONSTANT_CFG)
    assert cfg.family.name == "constant"
    assert cfg.pipeline.grid == 256
    assert cfg.pipeline.floors == [0.1, 0.01]
    assert cfg.envelope is None


def test_value_expressions():
    cfg = parse_config(AFFINE_CFG)
    assert cfg.pipeline.v == pytest.approx(0.25)


def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config("[mystery]\nkey = 1\n")
    assert err.value.line == 1


def test_unknown_key_rejected():
    # threads is a CLI option (--threads), not a config key
    for text in ("[pipeline]\nwarp = 9\n", "[pipeline]\nthreads = 2\n"):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert err.value.line == 2


def test_expression_syntax_errors_point_at_the_offending_character():
    # here the parser stops at the end of the value
    for text, where in (("[family]\nexpression = 1 + (m\n", "line 2, column 20"),
                        ("[family]\nname = constant\n[obstruct]\nh   =   m *  # c\n",
                         "line 4, column 12")):
        with pytest.raises(ConfigurationError, match=where):
            parse_config(text)
    # a domain given after the family still decides the expression's variables
    parse_config("[family]\nexpression = 1 + a*t\n[domain]\nkind = torus\n")


def test_family_extra_keys_become_params():
    cfg = parse_config("[family]\nname = h_power\nalpha = 2\n")
    assert cfg.family.params == {"alpha": 2.0}
    fam = build_family(cfg)
    assert fam.name == "h_power"


def test_invariant_validation():
    with pytest.raises(ConfigurationError):
        parse_config("[family]\nname = constant\n\n[pipeline]\nv = 0.5\n")
    with pytest.raises(ConfigurationError):
        parse_config("[family]\nname = constant\n\n[pipeline]\ngrid = 8\n")
    with pytest.raises(ConfigurationError):
        parse_config("[family]\nname = constant\n\n[pipeline]\ntol_push = 0\n")
    with pytest.raises(ConfigurationError):
        parse_config("[family]\nname = constant\nexpression = m\n")
    with pytest.raises(ConfigurationError):
        parse_config("[domain]\nkind = disk\n\n[family]\nname = constant\n")


def test_a_lone_bound_replaces_that_end_of_a_builtin_range():
    # a lone x_hi was dropped, and the checker probed x up to 0.98 of [0, 1]
    for bounds, want in (("x_hi = 0.5", (0.0, 0.5)), ("x_lo = 0.25", (0.25, 1.0)),
                         ("x_lo = 0.25\nx_hi = 0.5", (0.25, 0.5))):
        cfg = parse_config(f"[family]\nname = h_power\nalpha = 2\n{bounds}\n")
        assert build_family(cfg).x_range == want
    cfg = parse_config("[family]\nname = h_power\nx_lo = 1.5\n")
    with pytest.raises(ConfigurationError, match="empty or reversed"):
        build_family(cfg)


def test_cli_check_assumptions_honours_a_lone_x_hi(tmp_path):
    cfg_path = _write(tmp_path, """
[family]
name = h_power
alpha = 2
x_hi = 0.5

[envelope]
name = power
alpha = 2
""")
    assert main(["check-assumptions", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    probe = json.loads((tmp_path / "report.json").read_text())["assumptions"]["probe"]
    assert max(probe["x_nodes"]) == pytest.approx(0.49)


def test_a_reversed_range_is_a_configuration_error(tmp_path, capsys):
    # x_lo > x_hi passed validation and ended in exit 3, "x=0.4 outside X=[0.4, 0.1]"
    for lo, hi in (("0.4", "0.1"), ("0.3", "0.3")):
        text = f"[family]\nexpression = 1 + x*(2*m - 1)\nx_lo = {lo}\nx_hi = {hi}\n"
        with pytest.raises(ConfigurationError, match="x_lo < x_hi"):
            parse_config(text)
        cfg_path = _write(tmp_path, text + "\n[envelope]\nname = constant\n")
        for command in ("check-assumptions", "represent"):
            assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert "x_lo < x_hi" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_envelope_section_builds():
    cfg = parse_config(
        "[family]\nname = h_power\nalpha = 2\n\n[envelope]\nname = power\nalpha = 2\n"
    )
    env = build_envelope(cfg)
    assert env.name == "power"


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_represent_constant_passes(tmp_path):
    cfg_path = _write(tmp_path, CONSTANT_CFG)
    out = str(tmp_path / "out")
    code = main(["represent", "--config", cfg_path, "--out", out])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["pushforward"]["all_passed"] is True
    csv_files = sorted(os.listdir(tmp_path / "out" / "csv"))
    assert "map_x00.csv" in csv_files
    header = (tmp_path / "out" / "csv" / "map_x00.csv").read_text().splitlines()[0]
    assert header == "m,T_x_m,x"


def test_cli_reports_are_deterministic(tmp_path):
    cfg_path = _write(tmp_path, CONSTANT_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["represent", "--config", cfg_path, "--out", out1]) == 0
    assert main(["represent", "--config", cfg_path, "--out", out2]) == 0
    b1 = (tmp_path / "a" / "report.json").read_bytes()
    b2 = (tmp_path / "b" / "report.json").read_bytes()
    assert b1 == b2


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = _write(tmp_path, "[pipeline]\nwarp = 1\n")
    assert main(["represent", "--config", cfg_path]) == 1
    assert main(["represent", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_cli_check_assumptions_requires_envelope(tmp_path):
    cfg_path = _write(tmp_path, CONSTANT_CFG)
    assert main(["check-assumptions", "--config", cfg_path]) == 1


def test_cli_check_assumptions_pass_and_fail(tmp_path):
    pass_cfg = _write(tmp_path, """
[family]
name = h_power
alpha = 2
k = 2

[envelope]
name = power
alpha = 2

[outputs]
report = pass.json
""", "pass.cfg")
    assert main(["check-assumptions", "--config", pass_cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "pass.json").read_text())
    assert rep["assumptions"]["verdict"] == "PASS"

    fail_cfg = _write(tmp_path, """
[family]
name = example1
k = 2

[envelope]
name = power
alpha = 2

[outputs]
report = fail.json
""", "fail.cfg")
    assert main(["check-assumptions", "--config", fail_cfg, "--out", str(tmp_path)]) == 2
    rep = json.loads((tmp_path / "fail.json").read_text())
    assert rep["assumptions"]["verdict"] == "FAIL"
    first_order = rep["assumptions"]["margins"]["derivative:beta=1:j=0"]
    assert first_order["margin"] > 1.0
    assert first_order["witness"]["beta"] == 1 and first_order["witness"]["j"] == 0


def test_cli_rejects_k_below_one_and_runs_k3_on_a_builtin(tmp_path, capsys):
    # k < 1 left the checker nothing to check: it passed with exit 0
    for k in (0, -1):
        cfg_path = _write(tmp_path, f"""
[family]
expression = 1 + x*(2*m - 1)
k = {k}
x_lo = -0.5
x_hi = 0.5

[envelope]
name = constant
""", f"k{k}.cfg")
        for command in ("check-assumptions", "represent"):
            assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "report.json").exists()
    capsys.readouterr()
    cfg_path = _write(tmp_path, """
[family]
name = h_power
alpha = 2
k = 3

[envelope]
name = power
alpha = 2
""", "k3.cfg")
    # every builtin's table comes from its formula, to any order
    assert main(["check-assumptions", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())["assumptions"]
    assert rep["verdict"] == "PASS" and "derivative:beta=0:j=3" in rep["margins"]


OBSTRUCT_CFG = """
[family]
name = constant

[obstruct]
xs = 1e-1, 3e-2, 1e-2
base = 0
"""
ENVELOPE_CFG = """
[family]
name = h_power
k = 2

[envelope]
name = power
alpha = 2
"""
PERFBENCH_CYLINDER = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "cylinder_flow.cfg"


@pytest.mark.parametrize("command, base, old, new, at_parse", [
    # raised while a command ran, these exited 3 as construction errors
    pytest.param("represent", "cylinder", "mode = moser_only", "mode = full", False,
                 id="full-mode-on-the-cylinder"),
    pytest.param("represent", "constant", "floors = 1e-1, 1e-2", "floors = 1e-2", True,
                 id="one-floor"),
    pytest.param("obstruct", "obstruct", "xs = 1e-1, 3e-2, 1e-2", "xs = 1e-1, 1e-2", False,
                 id="two-obstruct-xs"),
    pytest.param("obstruct", "obstruct", "xs = 1e-1, 3e-2, 1e-2", "xs = 1e-1, 0, 1e-2", False,
                 id="obstruct-xs-containing-base"),
    # counts below one: a traceback, an empty vacuous scan, or a false finding
    pytest.param("represent", "constant", "steps = 64", "steps = 0", True, id="steps-0"),
    pytest.param("represent", "constant", "x_samples = 3", "x_samples = 0", True,
                 id="x_samples-0"),
    pytest.param("represent", "constant", "seed = 7", "seed = 7\nck_order = 0", True,
                 id="ck_order-0"),
    pytest.param("represent", "constant", "seed = 7", "seed = 7\nn_fine = 0", True,
                 id="n_fine-0"),
    # degenerate 2D pushforward counts: a ZeroDivisionError traceback, a one-bin
    # check that cannot fail, and an l1_error of NaN
    pytest.param("represent", "cylinder", "bins = 24", "bins = 0", True, id="bins-0"),
    pytest.param("represent", "cylinder", "bins = 24", "bins = 1", True, id="bins-1"),
    pytest.param("represent", "cylinder", "samples = 16384", "samples = 0", True,
                 id="samples-0"),
    # an IndexError traceback, and an E_h verdict on no x at all
    pytest.param("represent", "constant", "mode = moser_only", "mode = full\ncollar_nodes = 0",
                 True, id="collar_nodes-0"),
    pytest.param("obstruct", "obstruct", "base = 0", "base = 0\nh = m\nh_x_nodes = 0", True,
                 id="h_x_nodes-0"),
    # floors outside (0, 1): a numpy traceback, or construction errors on a NaN point
    pytest.param("represent", "constant", "floors = 1e-1, 1e-2", "floors = 0, 1e-3", True,
                 id="floors-with-zero"),
    pytest.param("represent", "constant", "floors = 1e-1, 1e-2", "floors = -1e-2, 1e-3", True,
                 id="floors-negative"),
    pytest.param("represent", "constant", "floors = 1e-1, 1e-2", "floors = 2, 1e-2", True,
                 id="floors-above-one"),
    # an infinite integer ended in an OverflowError traceback
    pytest.param("represent", "constant", "steps = 64", "steps = 1e400", True,
                 id="steps-inf"),
    # parameters a builtin family or envelope lacks or does not take ended in tracebacks
    pytest.param("check-assumptions", "envelope", "alpha = 2\n", "", False,
                 id="power-envelope-without-alpha"),
    pytest.param("check-assumptions", "envelope", "k = 2", "k = 2\nbeta = 3", False,
                 id="h_power-with-beta"),
    # a builtin ran on the interval and reported the configured torus
    pytest.param("obstruct", "obstruct", "[family]", "[domain]\nkind = torus\n\n[family]",
                 False, id="builtin-on-a-torus"),
    # syntax errors: a traceback from [family] expression, exit 3 from [obstruct] h
    pytest.param("represent", "constant", "name = constant", "expression = 1 + (m", True,
                 id="expression-syntax-error"),
    pytest.param("obstruct", "obstruct", "base = 0", "base = 0\nh = m *", True,
                 id="h-syntax-error"),
])
def test_cli_configuration_errors_exit_1_without_a_report(tmp_path, capsys, command, base,
                                                          old, new, at_parse):
    text = {"constant": CONSTANT_CFG, "obstruct": OBSTRUCT_CFG, "envelope": ENVELOPE_CFG,
            "cylinder": PERFBENCH_CYLINDER.read_text(encoding="utf-8")}[base]
    assert old in text
    cfg_path = _write(tmp_path, text.replace(old, new))
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert ("line " in err and ", column " in err) == at_parse
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_obstruct_example1_finding(tmp_path):
    cfg_path = _write(tmp_path, """
[family]
name = example1
k = 2

[obstruct]
xs = 1e-1, 3e-2, 1e-2
base = 0
h = m
h_x_nodes = 5

[outputs]
report = ob.json
csv_dir = csv
""", "ob.cfg")
    code = main(["obstruct", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "ob.json").read_text())
    assert rep["lipschitz"]["verdict"] == "BLOWUP-DETECTED"
    assert rep["expectation"]["verdict"] == "SMOOTH-CONSISTENT"
    assert (tmp_path / "csv" / "obstruction.csv").exists()
    assert (tmp_path / "csv" / "expectation.csv").exists()


def test_cli_obstruct_constant_clean(tmp_path):
    cfg_path = _write(tmp_path, """
[family]
name = constant

[obstruct]
xs = 1e-1, 3e-2, 1e-2
base = 0

[outputs]
report = ob.json
""", "obc.cfg")
    assert main(["obstruct", "--config", cfg_path, "--out", str(tmp_path)]) == 0


def test_cli_represent_cylinder_smoke(tmp_path):
    cfg_path = _write(tmp_path, CYLINDER_CFG, "cyl.cfg")
    out = str(tmp_path / "cyl")
    code = main(["represent", "--config", cfg_path, "--out", out])
    report = json.loads((tmp_path / "cyl" / "report.json").read_text())
    assert code == 0, report
    assert report["pushforward"]["all_passed"] is True
    header = (tmp_path / "cyl" / "csv" / "map_x00.csv").read_text().splitlines()[0]
    assert header == "a,t,T_a,T_t,x"


def test_cli_seed_override_changes_report_field(tmp_path):
    cfg_path = _write(tmp_path, CONSTANT_CFG)
    out = str(tmp_path / "s")
    assert main(["represent", "--config", cfg_path, "--out", out, "--seed", "99"]) == 0
    rep = json.loads((tmp_path / "s" / "report.json").read_text())
    assert rep["seed"] == 99


def test_cli_dump_fields(tmp_path):
    cfg_path = _write(tmp_path, CONSTANT_CFG + "\n[pipeline]\ndump_fields = 1\n",
                      "dump.cfg")
    out = str(tmp_path / "dump")
    assert main(["represent", "--config", cfg_path, "--out", out]) == 0
    for name in ("potential.csv", "velocity_t0.csv", "flow_map.csv"):
        assert (tmp_path / "dump" / "csv" / name).exists()


def test_cli_threads_flag_and_env(tmp_path):
    cfg_path = _write(tmp_path, CONSTANT_CFG)
    for n in (1, 2):
        assert main(["represent", "--config", cfg_path, "--out", str(tmp_path / f"t{n}"),
                     "--threads", str(n)]) == 0
    # the report content is thread-count independent
    b1 = (tmp_path / "t1" / "report.json").read_bytes()
    b2 = (tmp_path / "t2" / "report.json").read_bytes()
    assert b1 == b2
    # full mode: the collar diagnostics of each x run inside the workers too
    full_path = _write(tmp_path, AFFINE_CFG.replace("grid = 256", "grid = 128")
                       .replace("steps = 64", "steps = 32"), "affine.cfg")
    codes = [main(["represent", "--config", full_path, "--out", str(tmp_path / f"f{n}"),
                   "--threads", str(n)]) for n in (1, 2)]
    assert codes[0] == codes[1]
    files = sorted(p.relative_to(tmp_path / "f1") for p in (tmp_path / "f1").rglob("*")
                   if p.is_file())
    assert len(files) == 7      # report.json, 3 map and 3 collar tables
    for rel in files:
        assert (tmp_path / "f1" / rel).read_bytes() == (tmp_path / "f2" / rel).read_bytes()


def test_cli_represent_example1_unbounded_suspect(tmp_path):
    cfg_path = _write(tmp_path, """
[domain]
kind = interval

[family]
name = example1
k = 2

[pipeline]
grid = 128
steps = 32
mode = full
seed = 0
x_samples = 3
floors = 1e-2, 1e-3
x_floor_mode = match
ck_order = 1
tol_push = 1e-2

[outputs]
report = report.json
csv_dir = csv
""", "e1.cfg")
    out = str(tmp_path / "e1")
    code = main(["represent", "--config", cfg_path, "--out", out])
    rep = json.loads((tmp_path / "e1" / "report.json").read_text())
    assert code == 2
    assert rep["ck_scan"]["verdict"] == "UNBOUNDED-SUSPECT"
    assert rep["construction"]["t_star"] > 0
    assert rep["construction"]["nu_min_past_sixth"] > 0


def test_shipped_configs_parse():
    import glob
    import os

    here = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")
    paths = sorted(glob.glob(os.path.join(here, "*.cfg")))
    assert len(paths) >= 5
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            parse_config(handle.read())


_BLOCK_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked ({name})", name=name)

sys.meta_path.insert(0, NoScipy())
from moser_transport.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # no command imports scipy: with scipy blocked, each gives the exit code
    # and report that it gives with scipy importable
    configs = Path(__file__).parents[1] / "scripts" / "configs"
    runs = {
        "obstruct": ["obstruct", "--config", str(configs / "example2_obstruct.cfg")],
        "cylinder": ["represent", "--config", _write(tmp_path, CYLINDER_CFG, "cyl.cfg")],
        "represent": ["represent", "--config", str(configs / "h_power.cfg")],
        "check": ["check-assumptions", "--config", str(configs / "h_power.cfg")],
    }
    blocked = [argv + ["--out", str(tmp_path / "blocked" / name)] for name, argv in runs.items()]
    src = str(Path(moser_transport.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY, json.dumps(blocked)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    codes = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [2, 0, 0, 0], out.stderr
    for (name, argv), code in zip(runs.items(), codes):
        assert main(argv + ["--out", str(tmp_path / "scipy" / name)]) == code
        report = next((tmp_path / "scipy" / name).glob("*.json")).name
        assert ((tmp_path / "blocked" / name / report).read_bytes()
                == (tmp_path / "scipy" / name / report).read_bytes())


def test_cli_exits_3_when_a_node_the_scan_reads_leaves_the_cylinder(tmp_path, capsys):
    # the checked x = -1, 1 leave the density uniform; at interior x one RK4 step
    # carries nodes near t = 1 more than a cell past the rim
    cfg_path = _write(tmp_path, """
[domain]
kind = cylinder
circumference = 1

[family]
expression = 1 + 0.4*(1 - x^2)*(1 + cos(2*pi*a))/2*(exp(20*(t - 1))*20/(1 - exp(-20)) - 1)
x_lo = -1
x_hi = 1
k = 1

[pipeline]
grid = 24
steps = 1
mode = moser_only
floor = 0.5
tol_mass = 2e-2
x_samples = 2
floors = 1e-1, 1e-2
samples = 1024
bins = 8
tol_push = 1
""", "rim.cfg")
    assert main(["represent", "--config", cfg_path, "--out", str(tmp_path / "rim")]) == 3
    assert "construction error: RK4 sweep at x=" in capsys.readouterr().err
