"""The public surface is called: no public name that nothing uses, no
public default that no caller sets, and no public parameter that every
caller sets alike."""

import ast
import re
from pathlib import Path

import sparsecode
from sparsecode import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(sparsecode.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the Python readers that run the command line: the acceptance criteria and
# the benchmark
ARGV_READERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
# the readers of the public surface: the library itself, the README and those
READERS = [*MODULES, ROOT / "README.md", *ARGV_READERS]
CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")
# the command lines of the README and of CI
COMMAND_LINES = [ROOT / "README.md", *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]


def _trees():
    """The AST of every Python reader, and of each README python block."""
    for path in READERS:
        text = path.read_text()
        if path.suffix == ".md":
            for block in re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S):
                yield ast.parse(block)
        else:
            yield ast.parse(text)


def _unnamed(definitions):
    """The (path, name, line) definitions whose name is on no reader line
    other than the definition's own."""
    lines = [(path, number, line) for path in READERS
             for number, line in enumerate(path.read_text().splitlines(), 1)]
    unnamed = []
    for path, name, lineno in definitions:
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) for where, number, line in lines
                   if (where, number) != (path, lineno)):
            unnamed.append(f"{path.name}:{name}")
    return unnamed


def _name(node):
    """The identifier that a Name or Attribute node ends in; else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _calls(names):
    """(name, call) for each call, in a reader, of a function whose name is
    in `names`."""
    for tree in _trees():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _name(call.func) in names:
                yield _name(call.func), call


def _through_star(call: ast.Call) -> bool:
    """Whether the call passes arguments through `*` or `**`."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
               for d in node.decorator_list)


def test_every_public_name_is_named_beyond_its_definition():
    """Every module-level function and class of the library whose name does
    not start with `_` is named, outside its own def or class line, in a
    library module other than __init__.py, in the README, in the acceptance
    criteria or in the benchmark."""
    assert _unnamed((path, node.name, node.lineno) for path in MODULES
                    for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")) == []


def test_every_public_method_and_constant_is_named_beyond_its_definition():
    """The same rule for the methods and properties of public classes whose
    names do not start with `_`, and for module-level UPPER_CASE constants."""
    definitions = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                definitions += [(path, item.name, item.lineno) for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")]
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            definitions += [(path, t.id, node.lineno) for t in targets
                            if isinstance(t, ast.Name) and CONSTANT.match(t.id)]
    assert _unnamed(definitions) == []


def _has_default(value) -> bool:
    """Whether a dataclass field's value gives it a default: any value but a
    `field(...)` call with neither `default` nor `default_factory`."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        return any(k.arg in ("default", "default_factory", None) for k in value.keywords)
    return True


def _public_defaults(paths):
    """name -> (file name, parameters in call order, the defaulted ones) for
    each public module-level function and public dataclass in `paths` that
    has a defaulted parameter or field."""
    defaults = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.posonlyargs + node.args.args]
                n_default = len(node.args.defaults)
                defaulted = params[len(params) - n_default:] if n_default else []
                defaulted += [a.arg for a, d in zip(node.args.kwonlyargs,
                                                    node.args.kw_defaults) if d is not None]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                params = [f.target.id for f in fields]
                defaulted = [f.target.id for f in fields if _has_default(f.value)]
            else:
                continue
            if defaulted:
                defaults[node.name] = (path.name, params, set(defaulted))
    return defaults


def test_a_field_call_is_a_default_only_with_one(tmp_path):
    """`field(...)` with `default` or `default_factory` (or `**`) is a
    default; with neither, as `field(hash=False)`, the field is required."""
    module = tmp_path / "public.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Public:\n"
        "    required: int\n"
        "    unhashed: dict = field(hash=False)\n"
        "    plain: int = 0\n"
        "    given: int = field(default=1, hash=False)\n"
        "    made: list = field(default_factory=list)\n"
        "    spread: int = field(**{'default': 2})\n")
    assert _public_defaults([module]) == {"Public": (
        "public.py", ["required", "unhashed", "plain", "given", "made", "spread"],
        {"plain", "given", "made", "spread"})}


def test_every_public_default_is_set_by_a_caller():
    """Every defaulted parameter of a public module-level function, and every
    defaulted field of a public dataclass, is passed by some call in a
    library module, a README python block, the acceptance criteria or the
    benchmark: by keyword, by position, or through `*` or `**`."""
    defaults = _public_defaults(MODULES)
    passed = {name: set() for name in defaults}
    for name, call in _calls(defaults):
        _, params, defaulted = defaults[name]
        if _through_star(call):
            passed[name] |= defaulted
        passed[name] |= set(params[:len(call.args)])
        passed[name] |= {k.arg for k in call.keywords}

    unset = [f"{where}:{name}({p})" for name, (where, _, defaulted) in sorted(defaults.items())
             for p in sorted(defaulted - passed[name])]
    assert unset == []


def _module_constants():
    """The UPPER_CASE names, with or without a leading `_`, that a reader
    binds at its top level."""
    return {t.id for tree in _trees() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name) and CONSTANT.match(t.id.lstrip("_"))}


def _passed_flags():
    """The flags some caller passes to the command line: on a `sparsecode`
    command line in the README or CI, or in a list of strings (an argv) in
    the acceptance criteria or the benchmark."""
    flags = set()
    for path in COMMAND_LINES:
        for line in path.read_text().splitlines():
            if "sparsecode " in line:
                command = line.partition("sparsecode ")[2]
                flags |= set(re.findall(r"(?<!\S)--([\w-]+)", command))
    for path in ARGV_READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.List):
                flags |= {e.value[2:] for e in node.elts if isinstance(e, ast.Constant)
                          and isinstance(e.value, str) and e.value.startswith("--")}
    return flags


def _flag_defaults():
    """`args.<dest>` -> the source of the flag's default, for each flag that
    no caller passes and that every `cli._COMMANDS` row declaring it leaves
    optional with that one default: on every real run, that value."""
    seen = {}
    for _, _, _, choices in cli._COMMANDS.values():
        for required, optional in choices.values():
            for flag in required.split():
                seen.setdefault(flag, set()).add(None)
            for flag, default in optional.items():
                seen.setdefault(flag, set()).add(repr(default))
    passed = _passed_flags()
    return {f"args.{flag.replace('-', '_')}": value for flag, (value, *more) in seen.items()
            if not more and value is not None and flag not in passed}


def _fixed_value(node, constants, flag_defaults):
    """The source of a literal, the name of a module constant, or the default
    of a flag read as `args.<flag>`; None for anything else."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        pass
    if ast.unparse(node) in flag_defaults:
        return flag_defaults[ast.unparse(node)]
    return _name(node) if _name(node) in constants else None


def test_a_flag_no_caller_passes_reads_as_its_default():
    """An `args.<flag>` argument is the flag's one `_COMMANDS` default when
    no caller passes the flag; a flag some caller passes, or one that a
    subcommand requires, stays unknown."""
    defaults = _flag_defaults()
    assert {"args.seed", "args.L", "args.threshold", "args.q"}.isdisjoint(defaults)
    assert "normalize" not in _passed_flags() and defaults["args.normalize"] == "False"
    call = ast.parse("f(args.normalize, args.seed)").body[0].value
    assert [_fixed_value(a, set(), defaults) for a in call.args] == ["False", None]


def test_no_parameter_has_one_value_in_use():
    """No parameter of a public module-level function is set by two or more
    calls in a library module, a README python block, the acceptance
    criteria or the benchmark, every one of them to the same module constant
    or literal: such a parameter is a knob with one value, which belongs to
    the function.  An `args.<flag>` argument sets its flag's `_COMMANDS`
    default, unless some caller passes the flag.  A call through `*` or `**`
    may set any parameter to anything."""
    params = {}  # name -> (where, parameters in call order)
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                params[node.name] = (path.name, [a.arg for a in args.posonlyargs
                                                 + args.args + args.kwonlyargs])

    constants, flag_defaults = _module_constants(), _flag_defaults()
    values = {name: {p: [] for p in names} for name, (_, names) in params.items()}
    for name, call in _calls(params):
        names = params[name][1]
        if _through_star(call):
            given = dict.fromkeys(names)
        else:
            given = dict(zip(names, (_fixed_value(a, constants, flag_defaults)
                                     for a in call.args)))
            given.update((k.arg, _fixed_value(k.value, constants, flag_defaults))
                         for k in call.keywords)
        for p, value in given.items():
            if p in values[name]:
                values[name][p].append(value)

    fixed = [f"{params[name][0]}:{name}({p})" for name, by_param in sorted(values.items())
             for p, seen in by_param.items()
             if len(seen) >= 2 and seen[0] is not None and seen.count(seen[0]) == len(seen)]
    assert fixed == []


# the relations every slack comparison in the library goes through, each
# defined at the top level of cli.py
RELATIONS = ("_at_most",)


def test_only_report_serialises():
    """No class in the library other than `codes.Report` defines `to_dict`:
    every certifier report prints by one rule."""
    serialisers = [f"{path.name}:{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)
                   and any(isinstance(item, ast.FunctionDef) and item.name == "to_dict"
                           for item in node.body)]
    assert serialisers == ["codes.py:Report"]


def test_no_class_subclasses_a_number():
    """No class in the library subclasses `float` or `int`.  An exact number
    is a plain `Fraction` or `Decimal`, judged by a plain operator; a float
    that carried one hidden would print one number and be judged by
    another."""
    numbers = [f"{path.name}:{node.name}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(base, ast.Name) and base.id in ("float", "int")
                       for base in node.bases)]
    assert numbers == []


def _slack(node) -> bool:
    """Whether an expression is x + c, x - c or c + x for a float literal
    0 < c <= 1e-6."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and any(isinstance(side, ast.Constant) and type(side.value) is float
                    and 0 < side.value <= 1e-6 for side in (node.left, node.right)))


def test_every_slack_is_a_named_relation():
    """Outside `cli._at_most`, no expression in the library adds a small
    float slack to a value, in a comparison or anywhere else, such as a
    radius or a target computed before it is compared: a verdict with a
    slack calls that one relation.  Domain checks such as
    `delta < 1.0 - 1 / q` add no small literal and pass."""
    inline = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(node) for top in tree.body
                  if path.name == "cli.py" and isinstance(top, ast.FunctionDef)
                  and top.name in RELATIONS for node in ast.walk(top)}
        inline += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if id(node) not in exempt and _slack(node)]
    assert inline == []
