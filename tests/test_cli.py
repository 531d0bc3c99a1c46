import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fdlb.cli import _write_json, main
from fdlb.kbtext import MAX_CONCEPT_DEPTH, format_conflict, parse_kb
from fdlb.model import Atom, Or
from fdlb.reasoner import InconsistencyError, SaturatedKb

from kbtools import conflict_of, mutants

pytestmark = pytest.mark.usefixtures("fixtures_dir")


@pytest.fixture()
def paths(fixtures_dir):
    return {
        "crisp": str(fixtures_dir / "tablet_crisp.fdlb"),
        "fuzzy": str(fixtures_dir / "tablet_fuzzy.fdlb"),
        "complete": str(fixtures_dir / "tablet_complete.fdlb"),
        "clash": str(fixtures_dir / "clash.fdlb"),
        "e1": str(fixtures_dir / "expert1.ubox"),
        "e2": str(fixtures_dir / "expert2.ubox"),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check


def test_check_consistent(paths, capsys):
    code, out, err = run(capsys, "check", paths["crisp"])
    assert code == 0
    assert out.strip() == "consistent"


def test_check_inconsistent(paths, capsys):
    code, out, err = run(capsys, "check", paths["clash"])
    assert code == 2
    assert "e_1" in out
    assert "PoorEquip AND WellEquip" in out


def test_check_structured(paths, capsys):
    code, out, _ = run(capsys, "check", paths["clash"], "--format", "structured")
    assert code == 2
    payload = json.loads(out)
    assert payload["consistent"] is False
    assert payload["conflicts"][0]["individual"] == "e_1"
    assert payload["conflicts"][0]["lo"] == "1"
    assert payload["conflicts"][0]["hi"] == "0"


def test_check_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.fdlb"
    bad.write_text("assert x : @ 2;\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert f"{bad}:1:" in err  # file:line:col diagnostics
    assert "error" in err


def test_over_deep_concepts_exit_one(tmp_path, capsys):
    too_deep = "NOT " * (MAX_CONCEPT_DEPTH + 1) + "A"
    bad = tmp_path / "deep.fdlb"
    bad.write_text(f"assert x : {too_deep};\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert f"{bad}:1:" in err and "nested deeper than" in err
    good = tmp_path / "good.fdlb"
    good.write_text("assert x : A;\n")
    code, _, err = run(capsys, "explain", str(good), "-i", "x", "-c", too_deep)
    assert code == 1
    assert "<concept>:1:" in err and "nested deeper than" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.fdlb")
    assert code == 1
    assert "cannot read" in err


# -- rank


def test_rank_text_output(paths, capsys):
    code, out, _ = run(capsys, "rank", paths["complete"], "--ubox", paths["e1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "== expert1 =="
    assert lines[1] == "1. tab_3: 89"
    assert "ideal choice: tab_3" in lines
    assert any("LightweightTablet: weight 40, bound 0.6, contributes 24" in l for l in lines)


def test_rank_two_experts_disagree(paths, capsys):
    code, out, _ = run(capsys, "rank", paths["complete"],
                       "--ubox", paths["e1"], "--ubox", paths["e2"])
    assert code == 0
    assert "== expert1 ==" in out and "== expert2 ==" in out
    assert "ideal choice: tab_3" in out and "ideal choice: tab_2" in out


def test_rank_choice_subset(paths, capsys):
    code, out, _ = run(capsys, "rank", paths["complete"],
                       "--ubox", paths["e1"], "--choices", "tab_1,tab_2")
    assert code == 0
    assert "tab_3" not in out


def test_rank_reports_undecided_without_strict(paths, capsys):
    code, out, _ = run(capsys, "rank", paths["fuzzy"], "--ubox", paths["e1"])
    assert code == 0
    assert "undecided: " in out
    assert "tab_3/InexpensiveTablet" in out and "tab_2/LightweightTablet" in out


def test_rank_strict_complete_gate(paths, capsys):
    tablets = ("--choices", "tab_1,tab_2,tab_3")
    code, _, _ = run(capsys, "rank", paths["fuzzy"], "--ubox", paths["e1"],
                     "--strict-complete", *tablets)
    assert code == 3
    code, _, _ = run(capsys, "rank", paths["complete"], "--ubox", paths["e1"],
                     "--strict-complete", *tablets)
    assert code == 0


def test_rank_structured(paths, capsys):
    code, out, _ = run(capsys, "rank", paths["complete"], "--ubox", paths["e1"],
                       "--choices", "tab_1,tab_2,tab_3", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    expert = payload["experts"][0]
    assert expert["ideal"] == "tab_3"
    assert expert["complete"] is True
    top = expert["ranking"][0]
    assert top["choice"] == "tab_3" and top["score"] == "89"
    assert {c["attribute"]: c["bound"] for c in top["contributions"]} == {
        "InexpensiveTablet": "0.5",
        "UpperclassTablet": "1",
        "LightweightTablet": "0.6",
    }


def test_rank_structured_flags_undecided_as_null(paths, capsys):
    code, out, _ = run(capsys, "rank", paths["fuzzy"], "--ubox", paths["e1"],
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    rows = {row["choice"]: row for row in payload["experts"][0]["ranking"]}
    light = next(c for c in rows["tab_2"]["contributions"] if c["attribute"] == "LightweightTablet")
    assert light["bound"] is None and light["contribution"] == "0"
    assert {"choice": "tab_2", "attribute": "LightweightTablet"} in payload["experts"][0]["undecided"]


def test_rank_output_is_reproducible(paths, capsys):
    first = run(capsys, "rank", paths["complete"], "--ubox", paths["e1"],
                "--ubox", paths["e2"], "--format", "structured")
    second = run(capsys, "rank", paths["complete"], "--ubox", paths["e1"],
                 "--ubox", paths["e2"], "--format", "structured")
    assert first == second


def test_rank_requires_ubox(paths, capsys):
    code, _, err = run(capsys, "rank", paths["complete"])
    assert code == 1
    assert "--ubox" in err


def test_rank_unknown_choice(paths, capsys):
    code, _, err = run(capsys, "rank", paths["complete"], "--ubox", paths["e1"],
                       "--choices", "tab_9")
    assert code == 1
    assert "tab_9" in err


@pytest.mark.parametrize("choices", ["tab_1,nope", "nope,tab_1"])
def test_an_empty_utility_box_checks_every_choice(choices, paths, tmp_path, capsys):
    ubox = tmp_path / "empty.ubox"
    ubox.write_text("ubox empty {}\n")
    code, out, err = run(capsys, "rank", paths["complete"], "--ubox", str(ubox), "--choices", choices)
    assert code == 1 and out == ""
    assert err == "fdlb: error: individual 'nope' does not occur in the knowledge base\n"


@pytest.mark.parametrize("command", ["rank", "complete"])
def test_a_choice_listed_twice_is_exit_one(command, paths, capsys):
    code, out, err = run(capsys, command, paths["fuzzy"], "--ubox", paths["e1"],
                         "--choices", "tab_1,tab_1,tab_2")
    assert code == 1 and out == ""
    assert err == "fdlb: error: choice 'tab_1' is listed twice\n"


@pytest.mark.parametrize("command", ["rank", "complete"])
@pytest.mark.parametrize("choices", ["", ",", " , "])
def test_choices_naming_no_individual_is_exit_one(command, choices, paths, capsys):
    # an empty list is refused, not read as "every individual", and before the base is
    # saturated: the inconsistent base gets the same answer
    for base in ("complete", "clash"):
        code, out, err = run(capsys, command, paths[base], "--ubox", paths["e1"], "--choices", choices)
        assert code == 1 and out == ""
        assert err == "fdlb: error: --choices needs at least one individual\n"


def test_rank_inconsistent_kb(paths, capsys):
    code, _, err = run(capsys, "rank", paths["clash"], "--ubox", paths["e1"])
    assert code == 2
    assert "inconsistent" in err


def test_an_existential_over_a_closed_role_without_fillers_clashes(tmp_path, capsys):
    # s is closed and y has no s-filler, so EXISTS s . C is 0 at y: its upper
    # bound is forall-up on the dual FORALL s . NOT C
    kb = tmp_path / "closed.fdlb"
    kb.write_text("role s : abstract closed;\nassert y : EXISTS s . C @ 0.75;\nassert x : B;\n")
    code, out, _ = run(capsys, "check", str(kb))
    assert code == 2
    assert out == (
        "conflict on 'y' in EXISTS s . C: membership forced >= 0.75 and <= 0\n"
        "lower bound:\n"
        "  lo(y, EXISTS s . C) >= 0.75   [assertion; assert y : EXISTS s . C @ 0.75;]\n"
        "upper bound:\n"
        "  hi(y, EXISTS s . C) <= 0   [forall-up; closed role with no fillers]\n"
    )


@pytest.mark.parametrize("argv, clashing_row", [
    (("explain", "open.fdlb", "-i", "x", "-c", "Good OR Open"), Or(Atom("Good"), Atom("Open"))),
    (("rank", "open.fdlb", "--ubox", "open.ubox"), Atom("Open")),
    (("complete", "open.fdlb", "--ubox", "open.ubox"), Atom("Open")),
], ids=["explain", "rank", "complete"])
def test_clash_found_in_the_one_saturation_exits_two(argv, clashing_row, paths, tmp_path, capsys, monkeypatch):
    # explain saturates the base with its query in the closure, and the
    # declared attribute Open is in every closure; a clash found in the one
    # saturation that holds the row is the same inconsistency as one in the
    # base alone
    conflict = conflict_of(parse_kb(Path(paths["clash"]).read_text()).kb)
    monkeypatch.chdir(tmp_path)
    Path("open.fdlb").write_text("concept Open;\nassert x : Good @ 0.5;\n")
    Path("open.ubox").write_text("ubox e {\n    Good = 1;\n    Open = 1;\n}\n")
    assert run(capsys, "check", "open.fdlb")[0] == 0
    saturate_base, runs = SaturatedKb._run, []

    def clashing(sat):  # no row clashes on a consistent base, so one is simulated
        runs.append(sat)
        if clashing_row in sat.expr_ids:
            raise InconsistencyError(conflict)
        return saturate_base(sat)

    monkeypatch.setattr(SaturatedKb, "_run", clashing)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == format_conflict(conflict) + "\nfdlb: error: the knowledge base is inconsistent\n"
    assert len(runs) == 1


# -- complete

TABLETS = ("--choices", "tab_1,tab_2,tab_3")


def test_complete_lists_gaps(paths, capsys):
    code, out, _ = run(capsys, "complete", paths["fuzzy"], "--ubox", paths["e1"], *TABLETS)
    assert code == 3
    assert "expert1: incomplete (2 undecided)" in out
    assert "  tab_3 / InexpensiveTablet" in out
    assert "  tab_2 / LightweightTablet" in out


def test_complete_passes_after_completion(paths, capsys):
    code, out, _ = run(capsys, "complete", paths["complete"], "--ubox", paths["e1"], *TABLETS)
    assert code == 0
    assert out.strip() == "expert1: complete"


def test_complete_defaults_to_every_individual(paths, capsys):
    # without --choices the equipment individuals count too, and nothing
    # decides whether unweighted equipment is a lightweight tablet
    code, out, _ = run(capsys, "complete", paths["complete"], "--ubox", paths["e1"])
    assert code == 3
    assert "equipment_1 / LightweightTablet" in out


def test_complete_structured(paths, capsys):
    code, out, _ = run(capsys, "complete", paths["fuzzy"], "--ubox", paths["e1"],
                       "--format", "structured", *TABLETS)
    assert code == 3
    payload = json.loads(out)
    assert payload["experts"][0]["complete"] is False
    assert len(payload["experts"][0]["undecided"]) == 2


# -- explain


def test_explain_text_tree(paths, capsys):
    code, out, _ = run(capsys, "explain", paths["fuzzy"],
                       "-i", "tab_3", "-c", "UpperclassTablet")
    assert code == 0
    assert out.startswith("lo(tab_3, UpperclassTablet) >= 1")
    assert "gci" in out
    assert "assert tab_3 : Convertible @ 0.8;" in out


def test_explain_hi_bound(paths, capsys):
    code, out, _ = run(capsys, "explain", paths["crisp"],
                       "-i", "tab_2", "-c", "UpperclassTablet", "--bound", "hi")
    assert code == 0
    assert out.startswith("hi(tab_2, UpperclassTablet) <= 0")


def test_explain_compound_concept(paths, capsys):
    code, out, _ = run(capsys, "explain", paths["crisp"],
                       "-i", "tab_1", "-c", "EXISTS hasPrice . GE 900 EUR")
    assert code == 0
    assert "concrete" in out


def test_explain_structured(paths, capsys):
    code, out, _ = run(capsys, "explain", paths["fuzzy"], "-i", "tab_3",
                       "-c", "LightweightTablet", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0.6"
    assert payload["steps"][0]["rule"] == "gci"
    kinds = {payload["steps"][i]["rule"] for i in payload["steps"][0]["premises"]}
    assert "conj-up" in kinds


def test_explain_long_chain_text_and_structured(tmp_path, capsys):
    n = 500
    kb = tmp_path / "chain.fdlb"
    kb.write_text("".join(f"axiom A{i} SUBSUMED-BY A{i + 1};\n" for i in range(n)) + "assert x : A0;\n")
    code, out, _ = run(capsys, "explain", str(kb), "-i", "x", "-c", f"A{n}")
    assert code == 0
    assert len(out.splitlines()) == n + 1
    code, out, _ = run(capsys, "explain", str(kb), "-i", "x", "-c", f"A{n}", "--format", "structured")
    assert code == 0
    steps = json.loads(out)["steps"]
    assert len(steps) == n + 1
    assert [step["premises"] for step in steps] == [[i + 1] for i in range(n)] + [[]]


def test_explain_structured_cycle_points_back(tmp_path, capsys):
    kb = tmp_path / "cycle.fdlb"
    kb.write_text("axiom A SUBSUMED-BY B @ 0.9;\naxiom B SUBSUMED-BY A @ 0.5;\nassert a : B @ 0.6;\n")
    code, out, _ = run(capsys, "explain", str(kb), "-i", "a", "-c", "B", "--format", "structured")
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [(step["concept"], step["value"]) for step in steps] == [("B", "0.9"), ("A", "0.5")]
    assert steps[-1]["premises"] == [0]


def test_premises_index_into_steps_and_structured_explain_writes_them(tmp_path, capsys):
    # on random bases and the 18-level stacked diamonds: every premise is an
    # index into steps, steps[0] is the explained bound, the steps are the
    # depth-first order of the premises, and `explain --format structured`
    # writes each step's premises as they are
    from fdlb.kbtext import render_concept
    from fdlb.reasoner import NoDerivationError, saturate

    from kbgen import random_kb
    from kbtools import serialize_kb, stacked_diamonds

    def check_steps(explanation, individual, expr, kind, value):
        steps = explanation.steps
        assert all(0 <= p < len(steps) for step in steps for p in step.premises)
        assert steps[0][1:5] == (individual, expr, kind, value)
        assert tuple(explanation[:4]) == (individual, expr, kind, value)
        order, stack = [], [0]
        while stack:
            i = stack.pop()
            if i not in order:
                order.append(i)
                stack.extend(reversed(steps[i].premises))
        assert order == list(range(len(steps)))

    texts = [serialize_kb(random_kb(seed)) for seed in range(100)] + [stacked_diamonds(18)]
    written = conflicts = 0
    for k, text in enumerate(texts):
        result = parse_kb(text)
        assert result.ok, (k, result.diagnostics)
        try:
            sat = saturate(result.kb)
        except InconsistencyError as exc:
            c = exc.conflict
            check_steps(c.lo_explanation, c.individual, c.expr, "lo", c.lo_value)
            check_steps(c.hi_explanation, c.individual, c.expr, "hi", c.hi_value)
            conflicts += 1
            continue
        longest = {}
        for individual in result.kb.individuals:
            for expr in sat.closure:
                interval = sat.instance_interval(individual, expr)
                for kind, value in (("lo", interval.lo), ("hi", interval.hi)):
                    try:
                        explanation = sat.explain(individual, expr, kind)
                    except NoDerivationError:
                        continue
                    check_steps(explanation, individual, expr, kind, value)
                    longest[kind] = max(longest.get(kind, explanation), explanation, key=lambda e: len(e.steps))
        path = tmp_path / f"base_{k}.fdlb"
        path.write_text(text, encoding="utf-8")
        for e in longest.values():
            code, out, _ = run(capsys, "explain", str(path), "-i", e.individual, "-c", render_concept(e.expr),
                               "--bound", e.kind, "--format", "structured")
            assert code == 0
            assert [step["premises"] for step in json.loads(out)["steps"]] == [list(s.premises) for s in e.steps]
            written += 1
    assert conflicts >= 40 and written >= 80


# -- structured output


def test_structured_output_is_what_json_dumps_writes(paths, capsys):
    compared = 0
    for kb in ("crisp", "fuzzy", "complete", "clash"):
        lines = [["check", paths[kb]]]
        for command in ("rank", "complete"):
            lines.append([command, paths[kb], "--ubox", paths["e1"], "--ubox", paths["e2"]])
        for individual in ("tab_1", "tab_3", "equipment_1", "e_1"):
            for concept in ("LightweightTablet", "UpperclassTablet", "NOT WellEquip", "Tablet OR Fresh"):
                for bound in ("lo", "hi"):
                    lines.append(["explain", paths[kb], "-i", individual, "-c", concept, "--bound", bound])
        for argv in lines:
            _, out, _ = run(capsys, *argv, "--format", "structured")
            if out:
                assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv
                compared += 1
    assert compared >= 30


def json_trees():
    text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\U0001f600')))
    leaves = st.none() | st.booleans() | st.integers() | text
    return st.recursive(leaves, lambda inner: st.lists(inner) | st.dictionaries(text, inner), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_trees())
def test_the_json_writer_matches_json_dumps(tree):
    out = []
    _write_json(tree, out)
    assert "".join(out) == json.dumps(tree, sort_keys=True, indent=2)


def test_the_json_writer_remembers_only_shared_containers():
    shared = {"a": [1]}
    tree = {"rows": [shared, shared, {"b": [2]}], "more": [[shared]]}
    out, written = [], {}
    _write_json(tree, out, shared={id(shared)}, written=written)
    assert "".join(out) == json.dumps(tree, sort_keys=True, indent=2)
    assert sorted(written) == [(id(shared), "\n    "), (id(shared), "\n      ")]  # once per indent


def test_explain_undecided_bound(paths, capsys):
    code, _, err = run(capsys, "explain", paths["fuzzy"],
                       "-i", "tab_2", "-c", "LightweightTablet")
    assert code == 4
    assert "no lower bound beyond the default" in err


def test_explain_unknown_individual(paths, capsys):
    code, _, err = run(capsys, "explain", paths["fuzzy"], "-i", "tab_9", "-c", "Tablet")
    assert code == 1
    assert "tab_9" in err


def test_explain_bad_concept_syntax(paths, capsys):
    code, _, err = run(capsys, "explain", paths["fuzzy"], "-i", "tab_1", "-c", "AND AND")
    assert code == 1


def test_explain_undeclared_role_in_query(paths, capsys):
    code, _, err = run(capsys, "explain", paths["fuzzy"], "-i", "tab_1",
                       "-c", "EXISTS bogus . Tablet")
    assert code == 1
    assert "bogus" in err


# -- entry point plumbing


def test_console_script_runs(paths):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "fdlb", "check", paths["crisp"]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "consistent"


def test_usage_error_is_exit_one(capsys):
    code = main(["rank"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_cyclic_collector_as_it_found_it(collecting, paths, capsys):
    commands = [
        (0, ["check", paths["crisp"]]),
        (1, ["rank"]),
        (2, ["check", paths["clash"]]),
        (3, ["complete", paths["fuzzy"], "--ubox", paths["e1"]]),
        (4, ["explain", paths["fuzzy"], "-i", "tab_2", "-c", "LightweightTablet"]),
        ("help", ["--help"]),
    ]
    passes = []

    def count(phase, info):  # a pass that starts while main's frame is on the stack
        frame = sys._getframe()
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if frame is not None:
            passes.append(phase)

    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    gc.callbacks.append(count)
    try:
        for code, argv in commands:
            try:
                assert main(argv) == code
            except SystemExit:
                assert code == "help"
            assert gc.isenabled() is collecting, argv
    finally:
        gc.callbacks.remove(count)
        (gc.enable if before else gc.disable)()
    assert passes == []  # no collector pass ran inside a command
    capsys.readouterr()


def test_the_argument_parser_is_built_once_per_process(paths, capsys, monkeypatch):
    import argparse

    main(["rank"])
    built, real = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *args, **kw: built.append(1) or real(*args, **kw))
    assert main(["check", paths["crisp"]]) == 0
    assert main(["rank"]) == 1
    assert main(["explain", paths["crisp"], "-i", "tab_1", "-c", "Tablet"]) == 0
    assert built == []


# -- the fixture command lines, pinned


def fixture_command_lines(fixtures_dir):
    """``check``, ``rank`` and ``complete`` on each fixture base, and ``explain`` of every bound it can name.

    ``explain`` asks each individual about each concept name, each axiom
    side and compound concepts outside the base's closure, for both bounds, in text
    and structured output; a few lines end in usage errors.
    """
    from fdlb.kbtext import render_concept

    uboxes = [str(fixtures_dir / name) for name in ("expert1.ubox", "expert2.ubox")]
    lines = []
    for name in ("tablet_crisp.fdlb", "tablet_fuzzy.fdlb", "tablet_complete.fdlb", "clash.fdlb"):
        path = str(fixtures_dir / name)
        kb = parse_kb(Path(path).read_text(encoding="utf-8")).kb
        for form in ("text", "structured"):
            lines.append(["check", path, "--format", form])
            for command in ("rank", "complete"):
                lines += [[command, path, "--ubox", ubox, "--format", form] for ubox in uboxes]
                lines.append([command, path, "--ubox", uboxes[0], "--ubox", uboxes[1], "--format", form])
        lines.append(["rank", path, "--ubox", uboxes[0], "--choices", "tab_1,tab_3", "--strict-complete"])
        names = sorted(kb.concept_names)
        sides = sorted({render_concept(side) for gci in kb.gcis for side in (gci.lhs, gci.rhs)})
        compounds = [f"{a} OR {b}" for a, b in zip(names, names[1:])]
        compounds += [f"{a} AND NOT {b}" for a, b in zip(names, names[2:])]
        if "equipped" in kb.roles:
            compounds += [f"EXISTS equipped . {names[0]}", "FORALL equipped . (PoorEquip OR Fresh)",
                          "EXISTS hasPrice . GE 700 EUR", "EXISTS hasWeight . LT 800 g AND Tablet"]
        for individual in kb.individuals:
            for concept in names + sides + compounds:
                for bound in ("lo", "hi"):
                    for form in ("text", "structured"):
                        lines.append(["explain", path, "-i", individual, "-c", concept, "--bound", bound,
                                      "--format", form])
        lines.append(["explain", path, "-i", "nobody", "-c", names[0]])
        lines.append(["explain", path, "-i", kb.individuals[0], "-c", "A AND"])
    return lines


# SHA-256 of the (command line, exit code, stdout, stderr) of every fixture command line, the fixture
# directory written as <fixtures>: the output before the engine stopped growing its closure in place.
FIXTURE_OUTPUT_DIGEST = "bdfdf141fed1afc1a8daff3a65c98a2b6fe942daba9fdab16d3c3a0ce66e9f2c"


def test_fixture_command_lines_keep_their_output(fixtures_dir, capsys):
    digest = hashlib.sha256()
    lines = fixture_command_lines(fixtures_dir)
    for argv in lines:
        code, out, err = run(capsys, *argv)
        record = (argv, code, out, err)
        digest.update(repr(record).replace(str(fixtures_dir), "<fixtures>").encode())
    assert len(lines) > 3000
    assert digest.hexdigest() == FIXTURE_OUTPUT_DIGEST


# -- totality: mutated inputs give an exit code, never a traceback

MUTANTS_PER_FIXTURE = 75
QUERIES = {"clash": ("e_1", "WellEquip")}


@pytest.mark.parametrize("name", ["clash", "crisp", "fuzzy", "complete"])
def test_mutated_fixtures_always_exit_with_a_code(name, paths, tmp_path, capsys):
    rng = random.Random(f"mutants:{name}")
    individual, concept = QUERIES.get(name, ("tab_1", "UpperclassTablet"))
    kb = tmp_path / "mutant.fdlb"
    position = re.compile(rf"^{re.escape(str(kb))}:(\d+):(\d+): ", re.M)
    codes = set()
    positions = 0
    for text in mutants(Path(paths[name]).read_text(), rng, MUTANTS_PER_FIXTURE):
        kb.write_text(text)
        lines = text.splitlines()
        for argv in (
            ("check", str(kb)),
            ("rank", str(kb), "--ubox", paths["e1"]),
            ("explain", str(kb), "-i", individual, "-c", concept),
        ):
            code, _, err = run(capsys, *argv)
            assert code in range(5), (argv, text)
            codes.add(code)
            for line, column in position.findall(err):  # every position is inside the file
                line, column = int(line), int(column)
                assert 1 <= line <= len(lines) + 1, (err, text)
                assert 1 <= column <= len((lines + [""])[line - 1]) + 1, (err, text)
                positions += 1
    assert {0, 1} <= codes  # some mutants still parse, most do not
    assert positions

