from __future__ import annotations

import json
import weakref
from types import SimpleNamespace

import pytest

from coxkit import DomainError, checks, cli, enumerate_ball, named_matrix
from coxkit.ball import BOUNDARY
from coxkit.checks import ALL_CHECKS, run_checks
from coxkit.cli import main
from coxkit.serialize import poset_from_json_dict


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ball_command(capsys):
    code, out, err = _run(capsys, ["ball", "--type", "A2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 6
    assert "complete=True" in err


def test_missing_type_is_usage_error(capsys):
    code, _out, err = _run(capsys, ["ball"])
    assert code == 2
    assert "usage error" in err


def test_bad_radius_and_auto_radius(capsys):
    code, _o, _e = _run(capsys, ["ball", "--type", "A2", "--radius", "frog"])
    assert code == 2
    # no finite longest element: auto radius must be refused
    code, _o, _e = _run(capsys, ["ball", "--type", "I2(inf)"])
    assert code == 2
    code, out, _e = _run(capsys, ["ball", "--type", "I2(inf)", "--radius", "4"])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 9


def test_check_requires_checks(capsys):
    code, _o, err = _run(capsys, ["check", "--type", "A2"])
    assert code == 2 and "at least one check" in err
    code, _o, err = _run(capsys, ["check", "--type", "A2", "--checks", "nope"])
    assert code == 2 and "unknown check" in err


def test_check_suite_a2(capsys):
    code, out, _e = _run(capsys, [
        "check", "--type", "A2",
        "--checks", "graded,projections,refinement,sperner,phi,monoid",
        "--ideal", "all"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert all(report["checks"][name]["ok"] for name in report["checks"])
    assert report["checks"]["refinement"]["equals_bruhat_at"] == 1


def test_check_phi_b3_expected_negative(capsys):
    code, out, _e = _run(capsys, ["check", "--type", "B3",
                                  "--checks", "phi", "--k", "0"])
    assert code == 0
    row = json.loads(out)["checks"]["phi"]["per_k"][0]
    assert row["ok"] and not row["graded"]


@pytest.mark.parametrize("argv", [
    ["check", "--type", "A3", "--checks", "graded", "--ideal", "all"],
    ["check", "--type", "A3", "--checks", "phi"],
    # a truncated ball: x -> x m can leave it
    ["check", "--type", "affA2", "--radius", "6", "--checks", "graded",
     "--ideal", "all"],
])
def test_failed_candidate_falls_back_to_the_search(capsys, monkeypatch, argv):
    code, out, _e = _run(capsys, argv)
    search = cli.posets.poset_isomorphic
    searches = []

    def counted_search(p, q):
        searches.append(p.n)
        return search(p, q)

    # graded's candidate x -> x m walks off the ball, phi's is no isomorphism
    monkeypatch.setattr(checks, "_times", lambda ball, xs, m: [BOUNDARY] * len(xs))
    monkeypatch.setattr(cli.posets, "is_isomorphism", lambda p, q, f: False)
    monkeypatch.setattr(cli.posets, "poset_isomorphic", counted_search)
    assert _run(capsys, argv)[:2] == (code, out)
    assert searches


@pytest.mark.parametrize("name,radius", [("affC2", "7"), ("affA2", "6")])
def test_graded_compares_only_whole_cosets_on_truncated_balls(capsys, name,
                                                              radius):
    # the cosets the radius cuts off are counted, not compared
    code, out, _e = _run(capsys, ["check", "--type", name, "--radius", radius,
                                  "--checks", "graded", "--ideal", "all"])
    assert code == 0
    graded = json.loads(out)["checks"]["graded"]
    assert graded["ok"] and graded["failures"] == []
    assert graded["cut_components"] > 0


def test_graded_reports_no_cut_components_on_a_complete_group(capsys):
    code, out, _e = _run(capsys, ["check", "--type", "A3", "--checks", "graded",
                                  "--ideal", "all"])
    assert code == 0
    assert "cut_components" not in json.loads(out)["checks"]["graded"]


def test_graded_still_fails_on_whole_cosets_that_differ(capsys, monkeypatch):
    # with every isomorphism test failing, each ideal with two or more
    # whole cosets is reported
    compared = []
    isomorphic = checks._components_isomorphic

    def counted(ball, poset, comps):
        compared.append(len(comps))
        return isomorphic(ball, poset, comps)

    monkeypatch.setattr(checks, "_components_isomorphic", counted)
    monkeypatch.setattr(checks, "_times", lambda ball, xs, m: [BOUNDARY] * len(xs))
    monkeypatch.setattr(cli.posets, "poset_isomorphic",
                        lambda p, q: (False, None))
    code, out, _e = _run(capsys, ["check", "--type", "affA2", "--radius", "6",
                                  "--checks", "graded", "--ideal", "all"])
    assert code == 1
    failures = json.loads(out)["checks"]["graded"]["failures"]
    assert compared and min(compared) >= 2
    assert len(failures) == len(compared)
    assert all(f["non_isomorphic_component"] for f in failures)


def test_conjecture_checks_never_fail_exit(capsys):
    code, out, _e = _run(capsys, ["check", "--type", "A2",
                                  "--checks", "logconcave,shellability,curvature"])
    assert code == 0
    report = json.loads(out)
    assert all(report["checks"][n].get("conjecture") for n in report["checks"])


# The sperner and curvature rows of `coxkit check` on B3 and H3, as the
# per-h network with an arc per comparable pair and the per-edge BFS
# gave them.  Every slice of these weak-order refinements is strongly
# Sperner, so each row's flow value is the top rank sum: the running
# sums of the sorted rank sizes.  The flows now decide only the k = 0
# slice; each later slice contains it, and the rows are certified.
_PINNED = {
    "B3": ([8, 16, 23, 30, 35, 40, 43, 46, 47, 48], [
        (72, "-2/3", "0"), (144, "-1/3", "0"), (192, "0", "0"),
        (216, "0", "0")]),
    "H3": ([12, 24, 36, 48, 59, 70, 79, 88, 95, 102, 107, 112, 115, 118,
            119, 120], [
        (180, "-2/3", "0"), (360, "-1/3", "0"), (540, "-4/9", "0"),
        (660, "-4/11", "0"), (780, "-2/13", "0"), (840, "0", "0"),
        (900, "0", "0")]),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_check_sperner_and_curvature_rows_pinned(capsys, name):
    sums, curvature = _PINNED[name]
    code, out, _e = _run(capsys, ["check", "--type", name,
                                  "--checks", "sperner,curvature"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["sperner"] == {"ok": True, "per_k": [
        {"k": k, "ok": True,
         "rows": [[h, v, v, True] for h, v in enumerate(sums, 1)]}
        for k in range(len(curvature))]}
    assert checks["curvature"] == {"ok": True, "conjecture": True, "per_k": [
        {"k": k, "edges": edges, "skipped": 0, "kappa_min": lo, "kappa_max": hi}
        for k, (edges, lo, hi) in enumerate(curvature)]}


def test_curvature_slice_with_every_edge_skipped_reports_null(capsys):
    # near the boundary of a truncated ball every edge of the k >= 1
    # slices is skipped: no kappa, so JSON null rather than "None"
    code, out, _e = _run(capsys, ["check", "--type", "affC2", "--radius", "7",
                                  "--checks", "curvature"])
    assert code == 0
    rows = json.loads(out)["checks"]["curvature"]["per_k"]
    assert rows[0]["edges"] > 0 and rows[0]["kappa_min"] == "-2/3"
    empty = [row for row in rows if row["edges"] == 0]
    assert empty and rows[1] in empty
    for row in empty:
        assert row["skipped"] > 0
        assert row["kappa_min"] is None and row["kappa_max"] is None
    assert '"None"' not in out


def test_theorem_failure_gives_exit_1(capsys, monkeypatch):
    class Failing(checks._Check):
        def step(self, s):
            pass

        def report(self):
            return {"ok": False, "failures": ["x"]}

    monkeypatch.setitem(checks._CHECKS, "graded", Failing)
    code, out, _e = _run(capsys, ["check", "--type", "A2", "--checks", "graded"])
    assert code == 1
    assert json.loads(out)["status"] == "failed"


def test_timeout_gives_partial(capsys):
    code, out, _e = _run(capsys, ["check", "--type", "A2",
                                  "--checks", "sperner", "--timeout-secs", "0"])
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "partial"
    assert report["checks"]["sperner"]["skipped"] == "timeout"


@pytest.mark.parametrize("refused,message", [
    ("monoid", "monoid closure needs the complete finite group"),
    ("phi", "image poset needs the complete finite group")])
def test_check_the_ball_cannot_take_is_skipped(capsys, refused, message):
    # phi and monoid need the complete group: on a truncated ball they
    # are recorded as skipped, the finished checks keep their results,
    # and the run is partial
    code, out, _e = _run(capsys, ["check", "--type", "affA2", "--radius", "6",
                                  "--checks", f"graded,{refused},logconcave"])
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "partial"
    checks = report["checks"]
    assert checks["graded"]["ok"] is True and checks["graded"]["ideals_checked"] == 3
    assert checks["logconcave"]["per_k"]
    assert checks[refused] == {"ok": None, "skipped": message}


def test_graded_and_projections_read_k(capsys):
    code, out, _e = _run(capsys, ["check", "--type", "A4",
                                  "--checks", "graded,projections", "--k", "1"])
    assert code == 0
    result = json.loads(out)["checks"]
    assert result["graded"]["ideals_checked"] == 1
    assert result["projections"]["maps_checked"] == 16  # 2^4 subsets J


@pytest.mark.parametrize("argv", [
    ["--type", "A3", "--checks", ",".join(ALL_CHECKS)],
    ["--type", "B3", "--checks", ",".join(ALL_CHECKS)],
    ["--type", "affC2", "--radius", "7", "--checks", "graded,projections",
     "--ideal", "all"]], ids=["A3", "B3", "affC2-ideal-all"])
def test_run_checks_gives_the_checks_of_the_command(capsys, argv):
    code, out, _e = _run(capsys, ["check"] + argv)
    assert code == 0
    opts = dict(zip(argv[::2], argv[1::2]))
    matrix = named_matrix(opts["--type"])
    radius = int(opts.get("--radius", 0)) or json.loads(out)["radius"]
    got = run_checks(enumerate_ball(matrix, radius), opts["--checks"].split(","),
                     ideal=opts.get("--ideal", "tk"))
    assert got == json.loads(out)["checks"]


def test_the_walk_holds_one_slice_at_a_time(monkeypatch):
    # besides the slice being read, only Sperner's certified first slice
    # is kept
    alive = []
    build = checks.orders.intermediate_poset

    def tracked(*args):
        poset = build(*args)
        alive.append(weakref.ref(poset))
        assert sum(ref() is not None for ref in alive) <= 2
        return poset

    monkeypatch.setattr(checks.orders, "intermediate_poset", tracked)
    ball = enumerate_ball(named_matrix("A4"), 10)
    # refinement reads no slice, so the walk builds the same slices with
    # it and without it
    for names in (["graded", "projections", "refinement", "sperner", "phi", "monoid"],
                  ["graded", "sperner"]):
        alive.clear()
        out = run_checks(ball, names)
        assert all(record["ok"] for record in out.values())
        assert len(alive) == 4  # one poset per slice, shared by the checks


def test_the_deadline_is_read_between_slices(monkeypatch):
    # a clock that ticks once per read: the deadline passes before the
    # third slice, so no check that walks the slices finishes, while a
    # check over every ideal, run before the walk, does
    clock = iter(range(100))
    monkeypatch.setattr(checks, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    ball = enumerate_ball(named_matrix("A3"), 6)
    timeout = {"ok": None, "skipped": "timeout"}
    out = run_checks(ball, ["sperner", "refinement"], deadline=1.5)
    assert out == {"sperner": timeout, "refinement": timeout}
    clock = iter(range(100))
    out = run_checks(ball, ["graded", "sperner"], ideal="all", deadline=2.5)
    assert out["graded"]["ok"] and out["sperner"] == timeout


def test_element_cap_gives_partial(capsys):
    code, _o, err = _run(capsys, ["ball", "--type", "B3",
                                  "--cap-elements", "5"])
    assert code == 3 and "resource cap" in err


def test_poly_s4(capsys):
    code, out, _e = _run(capsys, ["poly", "--type", "A3", "--k", "1"])
    assert code == 0
    rows = json.loads(out)["polynomials"]
    assert rows == [{"k": 1, "coeffs": [1, 5, 10, 7, 1], "log_concave": True,
                     "unimodal": True, "truncated": False}]


def test_poly_k_ranges(capsys):
    code, out, _e = _run(capsys, ["poly", "--type", "A3", "--k", "0..2"])
    assert code == 0
    assert [r["k"] for r in json.loads(out)["polynomials"]] == [0, 1, 2]
    code, out, _e = _run(capsys, ["poly", "--type", "A3", "--k", "0,2"])
    assert [r["k"] for r in json.loads(out)["polynomials"]] == [0, 2]
    # a set of slices: increasing, each once
    code, out, _e = _run(capsys, ["poly", "--type", "A3", "--k", "2,0,2"])
    assert [r["k"] for r in json.loads(out)["polynomials"]] == [0, 2]
    code, out, _e = _run(capsys, ["poly", "--type", "A3"])  # default: all k
    assert [r["k"] for r in json.loads(out)["polynomials"]] == [0, 1, 2]


@pytest.mark.parametrize("argv,message", [
    (["check", "--checks", "sperner", "--k", "3..1"], "--k range '3..1' is empty"),
    (["check", "--checks", "refinement", "--k", "3..1"], "--k range '3..1' is empty"),
    (["poly", "--k", "3..1"], "--k range '3..1' is empty"),
    (["check", "--checks", "sperner", "--k", "-1"], "--k must be >= 0, got '-1'"),
    (["poly", "--k", "0..x"], "--k takes integers, got '0..x'"),
    (["order", "--k", "1.5"], "--k takes integers, got '1.5'"),
    (["order", "--k", "0,1"], "order takes a single --k, got '0,1'"),
    (["curvature", "--k", "0..1"], "curvature takes a single --k, got '0..1'"),
    (["curvature", "--k", "-2"], "--k must be >= 0, got '-2'")],
    ids=["check-empty", "refinement-empty", "poly-empty", "check-negative",
         "poly-not-integer", "order-not-integer", "order-list",
         "curvature-range", "curvature-negative"])
def test_bad_k_is_usage_error(capsys, argv, message):
    code, out, err = _run(capsys, argv + ["--type", "A3"])
    assert (code, out) == (2, "")
    assert f"usage error: {message}" in err


def test_sperner_flows_run_on_the_first_slice_only(capsys, monkeypatch):
    # a slice's chain gains are computed when the flows decide it; every
    # later slice that contains a strongly Sperner one is certified by it
    computed = []
    real = cli.posets._chain_gains
    monkeypatch.setattr(cli.posets, "_chain_gains", lambda p: (
        computed.append(p) if p._gains is None else None) or real(p))
    code, out, _e = _run(capsys, ["check", "--type", "A4", "--checks", "sperner"])
    assert code == 0 and len(computed) == 1
    assert [row["k"] for row in json.loads(out)["checks"]["sperner"]["per_k"]] == [
        0, 1, 2, 3]
    # --k names a set of slices, walked upward: k = 0 takes the flows and
    # certifies k = 2
    computed.clear()
    code, out, _e = _run(capsys, ["check", "--type", "A4", "--checks", "sperner",
                                  "--k", "2,0"])
    assert code == 0 and len(computed) == 1
    sperner = json.loads(out)["checks"]["sperner"]
    assert sperner["ok"] is True
    assert [row["k"] for row in sperner["per_k"]] == [0, 2]


def test_order_torder_dot(capsys):
    code, out, _e = _run(capsys, ["order", "--type", "A3",
                                  "--kind", "torder", "--format", "dot"])
    assert code == 0
    assert out.count("[label=") == 6
    assert out.count("->") == 6


def test_order_absolute_metadata(capsys):
    code, out, _e = _run(capsys, ["order", "--type", "A3",
                                  "--kind", "absolute", "--k", "1"])
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["k"] == 1
    assert "meet_semilattice" in meta


def test_order_unknown_kind(capsys):
    code, _o, err = _run(capsys, ["order", "--type", "A2", "--kind", "zigzag"])
    assert code == 2 and "unknown order kind" in err


def test_export_round_trip(tmp_path, capsys):
    path = tmp_path / "poset.json"
    code, _o, _e = _run(capsys, ["order", "--type", "A2", "--kind", "bruhat",
                                 "--out", str(path)])
    assert code == 0
    code, out, _e = _run(capsys, ["export", "--in", str(path), "--format", "dot"])
    assert code == 0 and out.startswith("digraph poset {")
    code, out, _e = _run(capsys, ["export", "--in", str(path), "--format", "csv"])
    assert code == 0 and out.startswith("lower,upper\n")
    code, out, _e = _run(capsys, ["export", "--in", str(path), "--format", "json"])
    assert json.loads(out)["covers"]
    code, _o, err = _run(capsys, ["export", "--in", str(path), "--format", "webp"])
    assert code == 2
    bad = tmp_path / "bad.json"
    for text in ('{"hello": 1}', '["covers"]', "5"):
        bad.write_text(text)
        code, _o, err = _run(capsys, ["export", "--in", str(bad)])
        assert code == 2 and "not a poset" in err


@pytest.mark.parametrize("poset,message", [
    ({"nodes": [0, 1], "covers": [[0, 5]]}, "does not join two of the 2 nodes"),
    ({"nodes": [0, 1], "covers": [[0, 1], [1, 0]]}, "cycle"),
    ({"nodes": [0, 1, 2], "covers": [[0, 1]], "rank": [0, 1]},
     "rank list has 2 entries for 3 nodes"),
    ({"nodes": [0, 1, 2], "covers": [[0, 1], [1, 2], [0, 2]]},
     "cover [0, 2] is implied by the other covers"),
], ids=["index-out-of-range", "cover-cycle", "short-rank", "redundant-cover"])
def test_export_rejects_a_malformed_poset(tmp_path, capsys, poset, message):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    for fmt in ("dot", "json", "csv"):
        code, out, err = _run(capsys, ["export", "--in", str(path), "--format", fmt])
        assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("poset", [
    {"covers": []},
    {"nodes": 3, "covers": []},
    {"nodes": [{"a": 1}], "covers": []},
    {"nodes": [0, 1], "covers": 5},
    {"nodes": [0, 1], "covers": [[0, 1]], "rank": 7},
    {"nodes": [0, 1], "covers": [5]},
    {"nodes": [0, 1], "covers": [[0, 1]], "rank": ["a", 1]},
    {"nodes": [0, 1], "covers": [[0, 1]], "metadata": [1]},
], ids=["no-nodes", "nodes-not-a-list", "unhashable-label", "covers-not-a-list",
        "rank-not-a-list", "cover-not-a-pair", "rank-not-integers",
        "metadata-not-an-object"])
def test_a_poset_of_the_wrong_shape_is_a_domain_error(tmp_path, capsys, poset):
    # a domain error (exit 2), not a traceback with the exit code of a
    # failed theorem check
    with pytest.raises(DomainError):
        poset_from_json_dict(poset)
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    code, out, err = _run(capsys, ["export", "--in", str(path), "--format", "json"])
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["export", "--in", "p.json", "--type", "A3"],
    ["export", "--in", "p.json", "--radius", "2"],
    ["export", "--in", "p.json", "--timeout-secs", "5"],
    ["ball", "--type", "A2", "--k", "1"]],
    ids=["export-type", "export-radius", "export-timeout", "ball-k"])
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, monkeypatch,
                                                      capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps({"nodes": [0, 1], "covers": [[0, 1]]}))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "coxkit.cfg"
    cfg.write_text("# defaults\ntype = A2\nk = 1\n")
    code, out, _e = _run(capsys, ["check", "--checks", "refinement",
                                  "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["type"] == "A2"
    broken = tmp_path / "broken.cfg"
    broken.write_text("no equals sign here\n")
    code, _o, err = _run(capsys, ["check", "--checks", "refinement",
                                  "--config", str(broken)])
    assert code == 2


def test_config_does_not_override_explicit_flags(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("ideal = all\nkind = weak\n")
    check = ["check", "--type", "A3", "--checks", "graded", "--config", str(cfg)]
    code, out, _e = _run(capsys, check + ["--ideal", "tk"])
    assert code == 0
    assert json.loads(out)["checks"]["graded"]["ideals_checked"] == 3
    code, out, _e = _run(capsys, check)
    assert code == 0
    assert json.loads(out)["checks"]["graded"]["ideals_checked"] == 14
    order = ["order", "--type", "A2", "--config", str(cfg)]
    _code, weak, _e = _run(capsys, order)
    _code, inter, _e = _run(capsys, order + ["--kind", "intermediate", "--k", "1"])
    assert json.loads(weak)["metadata"] != json.loads(inter)["metadata"]


def test_a_config_run_leaves_the_shared_parser_alone(tmp_path, capsys):
    # the parser with the built-in defaults is built once; a --config run
    # builds its own, so a later run without one reads the built-in k = 0
    cfg = tmp_path / "k1.cfg"
    cfg.write_text("k = 1\n")
    order = ["order", "--type", "A3", "--kind", "intermediate"]
    _code, before, _e = _run(capsys, order)
    _code, k1, _e = _run(capsys, order + ["--config", str(cfg)])
    _code, after, _e = _run(capsys, order)
    assert before == after != k1
    assert cli._default_parser() is cli._default_parser()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    for line in ("fn = x", "no_such_option = 1", "help = 1"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _o, err = _run(capsys, ["check", "--type", "A2", "--checks", "refinement",
                                      "--config", str(cfg)])
        assert code == 2 and "unknown config key" in err, line


def test_order_at_the_top_of_a_finite_group(capsys):
    # products that leave the table near the longest element are skipped
    # as boundary products, not an error
    code, out, err = _run(capsys, ["order", "--type", "A5", "--radius", "14",
                                   "--kind", "intermediate", "--k", "0"])
    assert code == 0, err
    assert json.loads(out)["metadata"]["boundary_skips"] > 0


def test_auto_radius_closes_every_finite_type(capsys):
    for name, size in (("G2", 12), ("C3", 48), ("I2(5)", 10), ("F4", 1152)):
        code, out, err = _run(capsys, ["ball", "--type", name, "--radius", "auto"])
        assert code == 0, err
        assert len(json.loads(out)["elements"]) == size


def test_curvature_command(capsys):
    code, out, _e = _run(capsys, ["curvature", "--type", "A3", "--k", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["convention"]["kappa"] == "1 - W1"
    assert data["edges"] and not data["errors"]
    code, out, _e = _run(capsys, ["curvature", "--type", "A3", "--k", "0",
                                  "--format", "csv"])
    assert out.startswith("x,y,kappa_num,kappa_den\n")


@pytest.mark.parametrize("command,accepted", [
    (["check", "--type", "A2", "--checks", "graded"], ("json",)),
    (["poly", "--type", "A2"], ("json",)),
    (["ball", "--type", "A2"], ("json",)),
    (["curvature", "--type", "A2", "--k", "0"], ("json", "csv"))])
def test_format_not_produced_is_usage_error(capsys, command, accepted):
    for fmt in ("csv", "dot", "xml"):
        code, out, err = _run(capsys, command + ["--format", fmt])
        if fmt in accepted:
            assert code == 0, err
            continue
        assert code == 2 and out == ""
        assert f"usage error: unknown format '{fmt}'" in err
        assert f"(accepted: {', '.join(accepted)})" in err
    code, out, err = _run(capsys, command + ["--format", "json"])
    assert code == 0, err
    json.loads(out)


def test_output_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _e = _run(capsys, ["order", "--type", "B3", "--kind",
                                      "intermediate", "--k", "1"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
