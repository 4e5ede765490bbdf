"""A layer option earns its place: production sets it somewhere.

A defaulted parameter that no call in ``src/``, ``scripts/`` or
``bench/`` ever passes is a constant dressed as a knob: its one
production value is the default, and only tests move it.  This census
reads the source with :mod:`ast` (nothing is imported or run) and
names every such option:

* the defaulted parameters of every ``src/repro`` def whose name no
  other def there shares (a constructor is named after its class), and
* every field of the option records ``FIELD_CLASSES``.

An option is *set* when some call resolved to its def passes it, by
keyword or by position, or when some statement assigns an attribute of
its name on anything but ``self`` (``params.retry_limit = 3``;
``dataclasses.replace(params, retry_limit=3)`` counts the same).  A
call that passes ``*args`` or ``**kwargs`` cannot be mapped, so its
callee is skipped; a name more than one def uses is skipped too, never
guessed.  The options tests drive on purpose are ``EXCEPTIONS``, one
reason each; an entry whose option production sets, or that no longer
exists, is stale.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Where production calls live (a ``test_*.py`` file among them is a
#: test, not a caller).
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "bench")
#: Option records: each field is an option, defaulted or not.
FIELD_CLASSES = ("MacParams", "HackConfig", "TcpParams")

ORACLE = ("the oracle and property tests drive it off the paper's value "
          "to pin the mechanism")
FQ_ORACLE = ("the FQ-CoDel property test runs the cached queue against "
             "tests/mac/uncached_fq_codel.py at microsecond CoDel times "
             "and varied quanta, so drops happen within short runs")

#: Options no production call sets, kept on purpose: ``Owner(option)``
#: -> why.
EXCEPTIONS: Dict[str, str] = {
    "TcpSender(mss)": ORACLE + " (small segments, many of them)",
    "TcpSender(initial_cwnd_segments)": ORACLE,
    "TcpSender(initial_ssthresh_bytes)": ORACLE,
    "TcpSender(min_rto_ns)": ORACLE + " (RTO backoff and clamping)",
    "TcpSender(max_rto_ns)": ORACLE + " (RTO backoff and clamping)",
    "BlockAckOriginator(window)": ORACLE + " (window edges)",
    "BlockAckRecipient(window)": ORACLE + " (window edges)",
    "BlockAckRecipient(history)": ORACLE + " (duplicate history edges)",
    "MacParams(retry_limit)": ORACLE + " (retry exhaustion)",
    "MacParams(bar_retry_limit)": ORACLE + " (BAR give-up and SYNC)",
    "MacParams(ampdu_max_bytes)": ORACLE + " (A-MPDU size caps)",
    "MacParams(ampdu_max_mpdus)": ORACLE + " (A-MPDU size caps)",
    "HackConfig(max_buffered)": "the overflow test fills a 4-entry "
                                "buffer instead of 120 entries",
    "FqCodelQueue(target_ns)": FQ_ORACLE,
    "FqCodelQueue(interval_ns)": FQ_ORACLE,
    "FqCodelQueue(quantum_bytes)": FQ_ORACLE,
    "interpretation_interval(p)": "a W-LSB oracle only tests call "
                                  "(tests/unreached.py lists the def)",
    "ProgressReporter(stream)": "tests capture the lines in a buffer; "
                                "the CLI writes to stderr",
    "ProgressReporter(min_interval_s)": "tests print every snapshot; "
                                        "the CLI keeps the 1 s floor",
}


class Def(NamedTuple):
    """One option owner: its positional parameters in order (``self``
    and ``cls`` dropped), the options it declares, and whether a call
    to it builds an instance (a class is referenced for more than
    calls: ``isinstance``, annotations)."""
    positional: Tuple[str, ...]
    options: Tuple[str, ...]
    is_class: bool


def _options_of(func: ast.FunctionDef, bound: bool, is_class: bool
                ) -> Def:
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] \
        if args.defaults else []
    defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
                  if default is not None]
    if bound:
        positional = positional[1:]
    return Def(tuple(positional), tuple(defaulted), is_class)


def _fields_of(cls: ast.ClassDef) -> Def:
    fields = tuple(node.target.id for node in cls.body
                   if isinstance(node, ast.AnnAssign)
                   and isinstance(node.target, ast.Name))
    return Def(fields, fields, True)


def owners(sources: Iterable[str],
           field_classes: Iterable[str] = FIELD_CLASSES
           ) -> Dict[str, List[Def]]:
    """Every def of ``sources`` under the name a call uses for it (a
    class's ``__init__`` and an option record under the class name):
    name -> the defs that use it, more than one when it is ambiguous.
    A def local to another def is nobody's option (its defaults bind
    loop variables), so it is left out."""
    found: Dict[str, List[Def]] = {}
    field_classes = set(field_classes)

    def walk(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name in field_classes:
                    found.setdefault(child.name, []).append(
                        _fields_of(child))
                walk(child, child)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                decorators = {getattr(d, "id", None)
                              for d in child.decorator_list}
                bound = in_class is not None \
                    and "staticmethod" not in decorators
                init = in_class is not None and child.name == "__init__"
                found.setdefault(
                    in_class.name if init else child.name, []).append(
                    _options_of(child, bound, init))
            else:
                walk(child, in_class)

    for source in sources:
        walk(ast.parse(source), None)
    return found


def settings(sources: Iterable[str], known: Dict[str, Def]
             ) -> Tuple[Set[Tuple[str, str]], Set[str], Set[str]]:
    """What ``sources`` set: ``(name, option)`` pairs passed to a call
    of an unambiguous name (``cls(...)`` inside a class is a call of
    that class), the attribute names assigned on anything but ``self``,
    and the callees some call cannot be mapped for: one passing
    ``*``/``**``, or a function handed on as a value (to ``map``, a
    pool, the event queue) for someone else to call."""
    passed: Set[Tuple[str, str]] = set()
    attributes: Set[str] = set()
    unmapped: Set[str] = set()

    def call(node: ast.Call, in_class: str) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name == "cls" and in_class:
            name = in_class
        if name == "replace":
            attributes.update(k.arg for k in node.keywords if k.arg)
        if name not in known:
            return
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            unmapped.add(name)
            return
        passed.update((name, param) for param in
                      known[name].positional[:len(node.args)])
        passed.update((name, k.arg) for k in node.keywords)

    def visit(nodes, in_class: str) -> None:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                visit(ast.iter_child_nodes(node), node.name)
                continue
            if isinstance(node, ast.Call):
                call(node, in_class)
                # The callee is not a value handed on; what it is
                # looked up on is.
                func = node.func
                visit([func.value] if isinstance(func, ast.Attribute)
                      else [] if isinstance(func, ast.Name) else [func],
                      in_class)
                visit(node.args + node.keywords, in_class)
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign,
                                 ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                attributes.update(
                    leaf.attr for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Attribute) and not (
                        isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"))
            elif isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) \
                    else node.attr
                if name in known and not known[name].is_class:
                    unmapped.add(name)
            visit(ast.iter_child_nodes(node), in_class)

    for source in sources:
        visit([ast.parse(source)], "")
    return passed, attributes, unmapped


class Verdict(NamedTuple):
    unset: List[str]        # options no caller sets, off the table
    stale: List[str]        # table entries production sets, or gone
    unreasoned: List[str]   # table entries with a blank reason


def census(package_sources: Iterable[str], caller_sources: Iterable[str],
           exceptions: Dict[str, str],
           field_classes: Iterable[str] = FIELD_CLASSES) -> Verdict:
    by_name = owners(package_sources, field_classes)
    known = {name: defs[0] for name, defs in by_name.items()
             if len(defs) == 1}
    passed, attributes, unmapped = settings(caller_sources, known)
    unset = sorted(
        f"{name}({option})" for name, owner in known.items()
        if name not in unmapped for option in owner.options
        if (name, option) not in passed and option not in attributes)
    return Verdict(
        [key for key in unset if key not in exceptions],
        sorted(set(exceptions) - set(unset)),
        sorted(key for key, reason in exceptions.items()
               if not reason.strip()))


def _read(paths: Iterable[Path]) -> List[str]:
    return [path.read_text() for path in paths]


def test_every_option_is_set_by_production_or_listed():
    callers = [path for root in CALLERS for path in sorted(
        root.rglob("*.py")) if not path.name.startswith("test_")]
    verdict = census(_read(sorted(PACKAGE.rglob("*.py"))),
                     _read(callers), EXCEPTIONS)
    assert verdict == ([], [], []), verdict


# ---------------------------------------------------------------------
# The verdict on a synthetic module
# ---------------------------------------------------------------------
MODULE = '''
class Layer:
    def __init__(self, sim, rate=1, width=2, *, depth=3):
        self.rate = rate

    def send(self, packet, urgent=False):
        pass

    @staticmethod
    def helper(a, b=1):
        pass

class Params:
    retries: int = 7
    gain: float = 1.0

def run(layer, jobs=1):
    for i in range(jobs):
        def step(i=i):          # binds a loop variable: no option
            pass

def send(x, y=0):
    pass
'''
#: Callers that set every option of ``MODULE`` but ``Params``'.
SETS_ALL_BUT_PARAMS = ("Layer(s, 1, 2, depth=3)\n"
                       "Layer.helper(0, 2)\n"
                       "run(x, jobs=2)\n")


def _verdict(callers, exceptions=None):
    return census([MODULE], [callers], exceptions or {},
                  field_classes=("Params",))


def test_an_option_no_caller_sets_fails():
    verdict = _verdict("Layer(s, 5, width=1, depth=2)\n"
                       "Layer.helper(0, 2)\n"
                       "run(Layer(s), 2)\n"
                       "Params(retries=1, gain=0.5)\n")
    assert verdict.unset == []
    verdict = _verdict("Layer(s, width=1)\n"
                       "Layer.helper(0)\n"
                       "run(x)\n"
                       "Params(retries=1)\n")
    assert verdict.unset == ["Layer(depth)", "Layer(rate)",
                             "Params(gain)", "helper(b)", "run(jobs)"]


def test_an_attribute_assignment_sets_it_but_not_on_self():
    verdict = _verdict("params.gain = 2\n"
                       "self.retries = 1\n"
                       "p = replace(p, jobs=2)\n"
                       "Layer(s, 1, 2, depth=3)\n"
                       "Layer.helper(0, 2)\n")
    assert verdict.unset == ["Params(retries)"]


def test_starred_calls_and_shared_names_are_skipped():
    verdict = _verdict("Layer(*args)\n"
                       "Layer.helper(**kw)\n"
                       "run(x, jobs=1)\n"
                       "Params(retries=1, gain=2)\n")
    # ``send`` is two defs' name: neither is judged.
    assert verdict.unset == []


def test_cls_in_a_class_body_calls_that_class():
    verdict = _verdict(SETS_ALL_BUT_PARAMS
                       + "class Params:\n"
                       "    @classmethod\n"
                       "    def strict(cls):\n"
                       "        return cls(retries=0, gain=2)\n")
    assert verdict.unset == []


def test_a_function_handed_on_is_skipped_but_a_class_is_judged():
    verdict = _verdict("isinstance(x, Layer)\n"
                       "Layer.helper(0, 2)\n"
                       "pool.map(run, layers)\n"
                       "Params(retries=1, gain=2)\n")
    assert verdict.unset == ["Layer(depth)", "Layer(rate)",
                             "Layer(width)"]


def test_a_local_def_is_nobodys_option():
    assert "step" not in owners([MODULE])


def test_a_listed_option_that_is_set_or_gone_is_stale():
    verdict = _verdict("Layer(s, 1, 2, depth=3)\n"
                       "Layer.helper(0, 2)\n"
                       "Params(retries=1, gain=2)\n",
                       {"run(jobs)": "why", "Layer(rate)": "why",
                        "Gone(x)": "why"})
    assert verdict == ([], ["Gone(x)", "Layer(rate)"], [])


def test_an_entry_without_a_reason_is_refused():
    verdict = _verdict("Layer(s, 1, 2, depth=3)\n"
                       "Layer.helper(0, 2)\n"
                       "Params(retries=1, gain=2)\n",
                       {"run(jobs)": "  "})
    assert verdict.unreasoned == ["run(jobs)"]


def test_every_committed_entry_has_a_reason():
    assert all(reason.strip() for reason in EXCEPTIONS.values())
