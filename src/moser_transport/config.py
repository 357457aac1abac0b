"""Run configuration: a line-oriented sectioned key-value text format.

Grammar (EBNF):

    config   = { line } ;
    line     = ( section | entry | blank ) , [ comment ] , newline ;
    section  = "[" , name , "]" ;
    entry    = key , "=" , value ;
    comment  = "#" , { any character } ;

Values are parsed with the same expression parser as densities (so
``v = 1/4`` or ``tol = 1e-3`` both work); a key's kind is its field's
type, and string-valued keys keep the raw text.  Parsing is strict: unknown
sections and keys, and syntax errors in ``[family] expression`` and
``[obstruct] h``, are rejected with line and column.  The ``[family]`` and
``[envelope]`` sections pass extra numeric keys on as parameters.
"""

import math
from dataclasses import asdict, dataclass, field, fields

from .density import builtin_family, expression_variables, family_from_expression, make_envelope
from .errors import ConfigurationError, ExpressionSyntaxError
from .expressions import parse_density_expression
from .geometry import make_domain


@dataclass
class DomainSection:
    kind: str = "interval"
    circumference: float = 1.0


@dataclass
class FamilySection:
    name: str = None
    expression: str = None
    k: int = 2
    x_lo: float = None
    x_hi: float = None
    params: dict = field(default_factory=dict)


@dataclass
class EnvelopeSection:
    name: str = None
    params: dict = field(default_factory=dict)


@dataclass
class PipelineSection:
    grid: int = 1024
    steps: int = 256
    v: float = 0.25
    margin: float = 0.5
    mode: str = "auto"
    seed: int = 0
    x_samples: int = 5
    tol_push: float = 1e-3
    tol_mass: float = 1e-4
    solver_tol: float = 1e-10
    floor: float = 1e-6
    floors: list = field(default_factory=lambda: [1e-2, 1e-3, 1e-4])
    x_floor_mode: str = "fixed"
    ck_order: int = 1
    growth_threshold: float = 2.0
    samples: int = 1048576
    bins: int = 64
    n_fine: int = 8192
    collar_nodes: int = 320
    dump_fields: int = 0


@dataclass
class ObstructSection:
    xs: list = field(default_factory=lambda: [1e-1, 1e-2, 1e-3])
    base: float = 0.0
    h: str = None
    h_x_nodes: int = 21
    slope_threshold: float = -0.05
    r2_threshold: float = 0.9


@dataclass
class OutputsSection:
    report: str = "report.json"
    csv_dir: str = "csv"


@dataclass
class RunConfig:
    domain: DomainSection = field(default_factory=DomainSection)
    family: FamilySection = field(default_factory=FamilySection)
    envelope: EnvelopeSection = None
    pipeline: PipelineSection = field(default_factory=PipelineSection)
    obstruct: ObstructSection = field(default_factory=ObstructSection)
    outputs: OutputsSection = field(default_factory=OutputsSection)

    def to_dict(self):
        return {f.name: asdict(getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None}


# the least value of each count below which a run is empty, divides by zero or
# checks nothing (one tent bin holds all the mass, one collar node is no table)
_MIN_COUNTS = {"steps": 1, "x_samples": 1, "ck_order": 1, "n_fine": 1, "samples": 1, "bins": 2,
               "collar_nodes": 2, "h_x_nodes": 1}
_SECTIONS = {f.name: f.type for f in fields(RunConfig)}


def _eval_scalar(text, line_no, col):
    try:
        ast = parse_density_expression(text, variables=())
        return float(ast.evaluate())
    except Exception as exc:
        raise ConfigurationError(f"cannot parse value {text!r}: {exc}", line_no, col) from None


def _assign(section_name, obj, key, raw, line_no, col):
    kind = {f.name: f.type for f in fields(obj)}.get(key)
    if kind in (None, dict):
        if section_name in ("family", "envelope"):
            obj.params[key] = _eval_scalar(raw, line_no, col)
            return
        raise ConfigurationError(
            f"unknown key {key!r} in section [{section_name}]", line_no, col
        )
    if kind is str:
        setattr(obj, key, raw)
    elif kind is list:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        values = [_eval_scalar(p, line_no, col) for p in parts]
        if key == "floors" and not (len(values) >= 2 and all(0 < f < 1 for f in values)):
            raise ConfigurationError(f"key 'floors' needs at least two values in (0, 1), "
                                     f"got {raw!r}", line_no, col)
        setattr(obj, key, values)
    elif kind is int:
        val = _eval_scalar(raw, line_no, col)
        if not math.isfinite(val) or val != int(val):
            raise ConfigurationError(f"key {key!r} needs an integer, got {raw!r}",
                                     line_no, col)
        least = _MIN_COUNTS.get(key, -math.inf)
        if val < least:
            raise ConfigurationError(f"key {key!r} needs an integer >= {least}, got {raw!r}",
                                     line_no, col)
        setattr(obj, key, int(val))
    else:
        setattr(obj, key, _eval_scalar(raw, line_no, col))


def parse_config(text):
    """Parse and validate the config text; strict about sections and keys."""
    cfg = RunConfig()
    current_name = None
    current = None
    spots = {}  # (section, key) -> (line, column) of the value
    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError("malformed section header", line_no, 1)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigurationError(f"unknown section [{name}]", line_no, 1)
            current_name = name
            if getattr(cfg, name) is None:
                setattr(cfg, name, _SECTIONS[name]())
            current = getattr(cfg, name)
            continue
        if "=" not in line:
            raise ConfigurationError("expected 'key = value'", line_no, 1)
        if current is None:
            raise ConfigurationError("entry before any section header", line_no, 1)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        col = rawline.index("=") + 2
        spots[current_name, key] = (line_no, col + rawline[col - 1:].index(raw))
        _assign(current_name, current, key, raw, line_no, col)
    validate_config(cfg)
    domain = make_domain(cfg.domain.kind, cfg.domain.circumference)
    for section, key, variables in (("family", "expression", expression_variables(domain)),
                                    ("obstruct", "h", ("m",))):
        source = getattr(getattr(cfg, section), key)
        if source is None:
            continue
        try:
            parse_density_expression(source, variables=variables)
        except ExpressionSyntaxError as exc:
            line_no, col = spots[section, key]
            raise ConfigurationError(f"cannot parse [{section}] {key} {source!r}: {exc}",
                                     line_no, col + exc.offset) from None
    return cfg


def validate_config(cfg):
    p = cfg.pipeline
    for key in ("tol_push", "tol_mass", "solver_tol", "floor"):
        if not getattr(p, key) > 0:
            raise ConfigurationError(f"pipeline.{key} must be positive")
    if p.grid < 16:
        raise ConfigurationError(f"pipeline.grid must be >= 16, got {p.grid}")
    if not (1.0 / 6.0 < p.v < 1.0 / 3.0):
        raise ConfigurationError(f"pipeline.v must lie in (1/6, 1/3), got {p.v}")
    if not 0 < p.margin < 1:
        raise ConfigurationError(f"pipeline.margin must lie in (0, 1), got {p.margin}")
    if p.mode not in ("auto", "full", "moser_only"):
        raise ConfigurationError(f"pipeline.mode must be auto|full|moser_only, got {p.mode}")
    if p.x_floor_mode not in ("fixed", "match"):
        raise ConfigurationError("pipeline.x_floor_mode must be fixed|match")
    if cfg.family.name is None and cfg.family.expression is None:
        raise ConfigurationError("family section needs a name or an expression")
    if cfg.family.name is not None and cfg.family.expression is not None:
        raise ConfigurationError("family section takes a name or an expression, not both")
    if cfg.family.name is not None and cfg.domain.kind != "interval":
        raise ConfigurationError(f"builtin family {cfg.family.name!r} lives on the interval, "
                                 f"not on the {cfg.domain.kind}")
    lo, hi = cfg.family.x_lo, cfg.family.x_hi
    if lo is not None and hi is not None and not lo < hi:
        raise ConfigurationError(f"family needs x_lo < x_hi, got x_lo = {lo:g}, x_hi = {hi:g}")
    make_domain(cfg.domain.kind, cfg.domain.circumference)
    return cfg


def build_family(cfg):
    """The configured family; x_lo or x_hi, given alone, replaces that end of
    the family's own X (a builtin's, or [0, 1] for an expression)."""
    dom = make_domain(cfg.domain.kind, cfg.domain.circumference)
    fam_cfg = cfg.family
    fam = None
    lo, hi = 0.0, 1.0
    if fam_cfg.name is not None:
        fam = builtin_family(fam_cfg.name, k=fam_cfg.k, **fam_cfg.params)
        lo, hi = fam.x_range
    x_range = (float(fam_cfg.x_lo) if fam_cfg.x_lo is not None else lo,
               float(fam_cfg.x_hi) if fam_cfg.x_hi is not None else hi)
    if not x_range[0] < x_range[1]:
        raise ConfigurationError(f"family parameter range X=[{x_range[0]:g}, {x_range[1]:g}] "
                                 f"is empty or reversed")
    if fam is None:
        return family_from_expression(fam_cfg.expression, domain=dom, x_range=x_range,
                                      k=fam_cfg.k)
    fam.x_range = x_range
    return fam


def build_envelope(cfg):
    if cfg.envelope is None or cfg.envelope.name is None:
        raise ConfigurationError("an [envelope] section with a name is required")
    return make_envelope(cfg.envelope.name, k=cfg.family.k, **cfg.envelope.params)
