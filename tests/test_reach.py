"""``scripts/reach.py``'s verdict, on synthetic defs (nothing is driven)."""

import runpy
from pathlib import Path

from tests.unreached import ALLOWED

ROOT = Path(__file__).resolve().parents[1]
REACH = runpy.run_path(str(ROOT / "scripts" / "reach.py"))
verdict = REACH["verdict"]

DEFS = {"repro.a:used", "repro.a:kept", "repro.b:dead"}


def test_the_allowlist_is_exactly_the_unreached_defs():
    result = verdict(DEFS, {"repro.a:used"},
                     {"repro.a:kept": "why", "repro.b:dead": "why"})
    assert result == ([], [], [])


def test_an_unreached_def_off_the_list_fails():
    result = verdict(DEFS, {"repro.a:used"}, {"repro.a:kept": "why"})
    assert result.unlisted == ["repro.b:dead"]


def test_a_listed_def_that_is_reached_or_gone_is_stale():
    result = verdict(DEFS, {"repro.a:used", "repro.a:kept"},
                     {"repro.a:kept": "why", "repro.b:dead": "why",
                      "repro.c:deleted": "why"})
    assert result.stale == ["repro.a:kept", "repro.c:deleted"]


def test_an_entry_without_a_reason_is_refused():
    result = verdict(DEFS, {"repro.a:used"},
                     {"repro.a:kept": " ", "repro.b:dead": "why"})
    assert result.unreasoned == ["repro.a:kept"]


def test_every_committed_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_defs_key_by_qualname_and_decorator_line(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        def inner():\n"
        "            pass\n"
        "        return inner\n")
    found = REACH["defs"](package)
    assert set(found) == {"repro.m:C.p", "repro.m:C.p.<locals>.inner"}
    path, first_line, lines = found["repro.m:C.p"]
    assert path.name == "m.py" and (first_line, lines) == (2, 5)
