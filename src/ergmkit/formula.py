"""Model-formula and constraint mini-language.

Grammar::

    formula  := term ("+" term)*
    term     := NAME ["(" args ")"] | "offset" "(" term ["," levelset] ")"
    args     := arg ("," arg)*
    arg      := [NAME "="] (NUMBER | STRING | BOOL | levelset | "diag")
    levelset := "[" int ("," int)* "]"     # negative entries mean "drop"

The same grammar parses constraint/hint strings, whose terms are the
atoms ``bd``, ``blocks``, ``strat``, ``sparse``, ``dense`` and ``tnt``.
``"."`` (or ``"~."``) is the empty constraint.  Negative integers in a
levelset exclude levels, mirroring ``levels = -1`` style usage.

``offset(term)`` marks every statistic of the wrapped term as an
offset; ``offset(term, [k, ...])`` marks the listed 1-based statistic
positions within the term (partial offset).
"""

import math
import re

from .errors import FormulaError

__all__ = ["TermSpec", "ModelSpec", "ConstraintSpec",
           "parse_model_formula", "parse_constraint_formula",
           "TERM_CATALOG", "CONSTRAINT_ATOMS"]


# Catalog of recognized model terms: name -> allowed argument names.
# Dimensions and semantics live in the terms module; the parser only
# validates names and argument types.
TERM_CATALOG = {
    "edges": (),
    "triangle": (),
    "nodematch": ("attr", "diff"),
    "nodefactor": ("attr", "levels"),
    "nodecov": ("attr",),
    "absdiff": ("attr",),
    "concurrent": (),
    "degree": ("d",),
    "gwdegree": ("decay", "fixed"),
    "gwesp": ("decay", "fixed"),
}

CONSTRAINT_ATOMS = {
    "bd": ("maxout", "maxin"),
    "blocks": ("attr", "levels2"),
    "strat": ("attr", "pmat", "empirical"),
    "sparse": (),
    "dense": (),
    "tnt": (),
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\.\d+(?:[eE][-+]?\d+)?|-?\d+(?:[eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_.0-9]*)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<punct>[()\[\],+=~.])
""", re.VERBOSE)

_BOOLS = {"true": True, "false": False, "TRUE": True, "FALSE": False}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", pos))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise FormulaError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def fail(self, message):
        raise FormulaError(message, self.peek()[2])

    # values -----------------------------------------------------------

    def parse_value(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            return int(val) if re.fullmatch(r"-?\d+", val) else float(val)
        if kind == "str":
            self.next()
            return val[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        if kind == "name":
            if val in _BOOLS:
                self.next()
                return _BOOLS[val]
            if val == "diag":
                self.next()
                return "diag"
            if val in ("Inf", "inf"):
                self.next()
                return math.inf
            self.fail(f"unexpected bare name {val!r} (strings need quotes)")
        if val == "[":
            return self.parse_levelset()
        if val == "-":
            self.fail("negative values must be attached to a number")
        self.fail(f"expected a value, found {val or 'end of input'!r}")

    def parse_levelset(self):
        self.expect("[")
        items = []
        if self.peek()[1] == "]":
            self.fail("empty level set")
        while True:
            kind, val, pos = self.next()
            if kind == "num" and re.fullmatch(r"-?\d+", val):
                items.append(int(val))
            elif kind == "str":
                items.append(val[1:-1])
            else:
                raise FormulaError("level sets hold integers or strings", pos)
            kind, val, pos = self.next()
            if val == "]":
                return tuple(items)
            if val != ",":
                raise FormulaError("expected ',' or ']' in level set", pos)

    def parse_args(self):
        args = []
        while True:
            kind, val, pos = self.peek()
            name = None
            if kind == "name" and self.tokens[self.k + 1][1] == "=" \
                    and val not in _BOOLS and val != "diag":
                self.next()
                self.next()
                name = val
            args.append((name, self.parse_value()))
            kind, val, pos = self.next()
            if val == ")":
                return args
            if val != ",":
                raise FormulaError("expected ',' or ')' in argument list", pos)

    # terms --------------------------------------------------------------

    def parse_term(self, catalog):
        kind, val, pos = self.next()
        if kind != "name":
            raise FormulaError(f"expected a term name, found {val or 'end of input'!r}", pos)
        if val == "offset":
            self.expect("(")
            inner = self.parse_term(catalog)
            mask = None
            kind2, val2, pos2 = self.next()
            if val2 == ",":
                mask = self.parse_levelset()
                if not all(isinstance(x, int) for x in mask):
                    raise FormulaError("offset mask must list statistic positions", pos2)
                self.expect(")")
            elif val2 != ")":
                raise FormulaError("expected ',' or ')' after offset term", pos2)
            return TermSpec(inner.name, args=inner.args, offset=True,
                            offset_mask=mask)
        if val not in catalog:
            raise FormulaError(f"unknown term {val!r}", pos)
        args = []
        if self.peek()[1] == "(":
            self.next()
            if self.peek()[1] == ")":
                self.next()
            else:
                args = self.parse_args()
        term = TermSpec(val, args=tuple(args))
        self._check_args(term, catalog, pos)
        return term

    def _check_args(self, term, catalog, pos):
        allowed = catalog[term.name]
        normalized = []
        seen = set()
        for k, (name, val) in enumerate(term.args):
            if name is None:
                if k >= len(allowed):
                    raise FormulaError(
                        f"term {term.name!r} takes at most {len(allowed)} arguments", pos)
                name = allowed[k]
            if name not in allowed:
                raise FormulaError(f"term {term.name!r} has no argument {name!r}", pos)
            if name in seen:
                raise FormulaError(f"duplicate argument {name!r} for {term.name!r}", pos)
            seen.add(name)
            normalized.append((name, val))
        term.args = tuple(normalized)

    def parse_formula(self, catalog):
        terms = [self.parse_term(catalog)]
        while True:
            kind, val, pos = self.next()
            if kind == "end":
                return terms
            if val != "+":
                raise FormulaError(f"expected '+' between terms, found {val!r}", pos)
            terms.append(self.parse_term(catalog))


class TermSpec:
    """One parsed model term: name, arguments, offset flags."""

    def __init__(self, name, args=(), offset=False, offset_mask=None):
        self.name = name
        self.args = tuple(args)
        self.offset = offset
        self.offset_mask = tuple(offset_mask) if offset_mask is not None else None

    def arg(self, name, default=None):
        for key, val in self.args:
            if key == name:
                return val
        return default

    def __eq__(self, other):
        return (isinstance(other, TermSpec) and self.name == other.name
                and self.args == other.args and self.offset == other.offset
                and self.offset_mask == other.offset_mask)

    def __hash__(self):
        return hash((self.name, self.args, self.offset, self.offset_mask))

    def __repr__(self):
        return f"TermSpec({self.format()!r})"

    def format(self):
        inner = self.name
        if self.args:
            inner += "(" + ", ".join(f"{k}={_fmt_value(v)}" for k, v in self.args) + ")"
        if not self.offset:
            return inner
        if self.offset_mask is None:
            return f"offset({inner})"
        return f"offset({inner}, {_fmt_value(self.offset_mask)})"


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    if isinstance(v, str) and v == "diag":
        return "diag"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, float) and math.isinf(v):
        return "Inf" if v > 0 else "-Inf"
    return repr(v)


class ModelSpec:
    """Ordered term list with the per-statistic offset bookkeeping.

    Statistic dimensions are resolved lazily because categorical terms
    need attribute levels; ``bind`` (terms module) fills them in.  The
    per-term offset declarations are stored here; the bound model turns
    them into a per-statistic mask and fixed-coefficient vector.
    """

    def __init__(self, terms):
        self.terms = list(terms)

    def __eq__(self, other):
        return isinstance(other, ModelSpec) and self.terms == other.terms

    def __repr__(self):
        return f"ModelSpec({self.format()!r})"

    def format(self):
        return " + ".join(t.format() for t in self.terms)


class ConstraintSpec:
    """Combined constraint/hint specification.

    Fields mirror the supported atoms: degree caps (scalar, or resolved
    per-vertex at bind time), blocked level pairs of an attribute,
    stratification with explicit or empirical weights, and the
    ``dense``/``tnt`` proposal hints (``sparse`` names the default and
    sets no field).
    """

    def __init__(self, bd_maxout=None, bd_maxin=None, blocks_attr=None,
                 blocks_levels2=None, strat_attr=None, strat_pmat=None,
                 strat_empirical=False, force_proposal=None):
        self.bd_maxout = bd_maxout
        self.bd_maxin = bd_maxin
        self.blocks_attr = blocks_attr
        self.blocks_levels2 = blocks_levels2   # "diag" or matrix (list of lists)
        self.strat_attr = strat_attr           # tuple of attribute names
        self.strat_pmat = strat_pmat           # matrix, file path, or None
        self.strat_empirical = strat_empirical
        self.force_proposal = force_proposal   # None | "uniform" | "tnt"

    def degree_capped(self):
        return self.bd_maxout is not None or self.bd_maxin is not None

    def constrained(self):
        """True when the sample space is actually restricted."""
        return self.degree_capped() or self.blocks_attr is not None

    def __eq__(self, other):
        if not isinstance(other, ConstraintSpec):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        return f"ConstraintSpec({self.format()!r})"

    def format(self):
        parts = []
        if self.force_proposal == "uniform":
            parts.append("dense")
        elif self.force_proposal == "tnt":
            parts.append("tnt")
        if self.bd_maxout is not None or self.bd_maxin is not None:
            args = []
            if self.bd_maxout is not None:
                args.append(f"maxout={_fmt_value(self.bd_maxout)}")
            if self.bd_maxin is not None:
                args.append(f"maxin={_fmt_value(self.bd_maxin)}")
            parts.append("bd(" + ", ".join(args) + ")")
        if self.blocks_attr is not None:
            parts.append(f'blocks(attr={_fmt_value(self.blocks_attr)}, '
                         f'levels2={_fmt_value(self.blocks_levels2)})')
        if self.strat_attr is not None:
            args = [f"attr={_fmt_value(self.strat_attr if len(self.strat_attr) > 1 else self.strat_attr[0])}"]
            if self.strat_pmat is not None:
                args.append(f"pmat={_fmt_value(self.strat_pmat)}")
            if self.strat_empirical:
                args.append("empirical=true")
            parts.append("strat(" + ", ".join(args) + ")")
        if self.force_proposal is None:
            parts.append("sparse")
        return " + ".join(parts) if parts else "."


def parse_model_formula(text):
    """Parse a model formula into a ModelSpec."""
    if not text or not text.strip():
        raise FormulaError("empty model formula")
    text = text.strip()
    if text.startswith("~"):
        text = text[1:]
    return ModelSpec(_Parser(text).parse_formula(TERM_CATALOG))


def parse_constraint_formula(text):
    """Parse a constraint/hint formula into a ConstraintSpec."""
    if text is None or not text.strip():
        raise FormulaError("empty constraint formula (use '.' for none)")
    text = text.strip()
    if text.startswith("~"):
        text = text[1:].strip()
    if text == ".":
        return ConstraintSpec()
    terms = _Parser(text).parse_formula(CONSTRAINT_ATOMS)
    spec = ConstraintSpec()
    seen = set()
    for term in terms:
        if term.offset:
            raise FormulaError("offset() is not a constraint atom")
        if term.name in seen:
            raise FormulaError(f"constraint atom {term.name!r} repeated")
        seen.add(term.name)
        # "sparse" names the default (TNT) and sets nothing
        if term.name == "dense":
            spec.force_proposal = "uniform"
        elif term.name == "tnt":
            spec.force_proposal = "tnt"
        elif term.name == "bd":
            spec.bd_maxout = term.arg("maxout")
            spec.bd_maxin = term.arg("maxin")
            for v in (spec.bd_maxout, spec.bd_maxin):
                if v is not None and not isinstance(v, int):
                    raise FormulaError("bd caps must be integers")
            if spec.bd_maxout is None and spec.bd_maxin is None:
                raise FormulaError("bd() needs maxout or maxin")
        elif term.name == "blocks":
            attr = term.arg("attr")
            if not isinstance(attr, str):
                raise FormulaError("blocks() needs a string attr")
            lv2 = term.arg("levels2")
            if lv2 != "diag":
                raise FormulaError("blocks levels2 supports 'diag' in formulas; "
                                   "pass explicit matrices programmatically")
            spec.blocks_attr = attr
            spec.blocks_levels2 = lv2
        elif term.name == "strat":
            attr = term.arg("attr")
            if isinstance(attr, str):
                attr = (attr,)
            elif isinstance(attr, tuple) and all(isinstance(a, str) for a in attr):
                attr = tuple(attr)
            else:
                raise FormulaError("strat attr must be a string or string list")
            spec.strat_attr = attr
            pmat = term.arg("pmat")
            if pmat is not None and not isinstance(pmat, str):
                raise FormulaError("pmat in formulas is a TSV file path; "
                                   "pass matrices programmatically")
            spec.strat_pmat = pmat
            spec.strat_empirical = bool(term.arg("empirical", False))
    if spec.force_proposal is not None and spec.strat_attr is not None:
        raise FormulaError("cannot force a plain proposal together with strat()")
    return spec
