"""Stratum combinatorics: labels, components, Hodge and birational data and
degeneration diagrams.  The dimensions are checked by acceptance criteria 3
and 4."""
import pytest

from octica.strata import (L, build_catalogue, catalogue_totals, component_tags,
                           degeneration_graph, degeneration_rule, empty_normal_labels,
                           expected_dimension, hodge_type, inhabited_nonnormal_labels,
                           inhabited_normal_labels, birational_type, label_from_id,
                           normal_component_count_multiset)

from local_checks import hodge_hasse_edges, hodge_leq


def test_expected_dimension_formula():
    assert expected_dimension(0, 0, 0, 0) == 36
    assert expected_dimension(0, 0, 1, 0) == 28
    assert expected_dimension(3, 0, 1, 0) == 1
    assert expected_dimension(1, 0, 0, 0) == 27
    assert expected_dimension(0, 1, 0, 0) == 26


def test_inhabited_strata_counts():
    labels = inhabited_normal_labels()
    assert len(labels) == 37
    components = sum(len(component_tags(l)) for l in labels)
    assert components == 68
    assert normal_component_count_multiset() == {1: 16, 2: 13, 3: 6, 4: 2}
    assert len(inhabited_nonnormal_labels()) == 10


def test_catalogue_totals():
    totals = catalogue_totals()
    assert totals["strata"] == 47
    assert totals["components"] == 78


def test_every_component_has_a_witness_recipe():
    for record in build_catalogue():
        if not record.empty:
            assert record.witness_key is not None, record.label.display()


def test_empty_labels_have_reasons():
    empties = empty_normal_labels()
    assert L(0, 4, 0, 0, 0) in empties
    assert L(0, 2, 0, 2, 0) in empties
    assert L(0, 1, 0, 3, 0) in empties
    for label, reason in empties.items():
        assert reason


def test_hodge_types():
    assert hodge_type(L(0, 0, 0, 0, 0)) == (0, 0)
    assert hodge_type(L(0, 0, 1, 1, 0)) == (1, 1)     # one cusp, one simply elliptic
    assert hodge_type(L(0, 3, 0, 1, 0)) == (0, 3)     # four simply elliptic: capped
    assert hodge_type(L(0, 0, 0, 4, 0)) == (0, 3)
    assert hodge_type(L(0, 0, 3, 0, 0)) == (3, 0)
    with pytest.raises(ValueError):
        hodge_type(L(1, 0, 0, 0, 0))


def test_hodge_distribution_over_all_normal_strata():
    # exhaustive check of the diamond assigned to every inhabited stratum
    buckets = {}
    for label in inhabited_normal_labels():
        buckets.setdefault(hodge_type(label), set()).add(label.counts)
    assert {h: len(s) for h, s in buckets.items()} == {
        (0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 6,
        (1, 0): 2, (1, 1): 4, (1, 2): 6,
        (2, 0): 3, (2, 1): 6, (3, 0): 4,
    }
    assert buckets[(0, 3)] == {(3, 0, 0, 0), (2, 0, 1, 0), (1, 0, 2, 0),
                               (0, 0, 3, 0), (3, 0, 1, 0), (0, 0, 4, 0)}
    assert buckets[(2, 1)] == {(1, 2, 0, 0), (1, 1, 0, 1), (1, 0, 0, 2),
                               (0, 2, 1, 0), (0, 1, 1, 1), (0, 0, 1, 2)}


def test_hodge_partial_order_hasse_diagram():
    edges = hodge_hasse_edges()
    assert len(edges) == 12
    expected = {((0, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 2)),
                ((1, 0), (1, 1)), ((0, 2), (1, 1)), ((0, 2), (0, 3)),
                ((0, 3), (1, 2)), ((1, 1), (2, 0)), ((1, 1), (1, 2)),
                ((2, 0), (2, 1)), ((1, 2), (2, 1)), ((2, 1), (3, 0))}
    assert set(edges) == expected


def test_birational_lookups():
    assert birational_type(L(0, 0, 0, 2, 0)) == "K3"
    assert birational_type(L(0, 1, 0, 1, 0, "'")) == "K3"
    assert birational_type(L(0, 1, 0, 1, 0, "''")).startswith("Properly elliptic, chi = 2")
    assert birational_type(L(0, 3, 0, 0, 0, "'")) == "Rational"
    assert birational_type(L(0, 3, 0, 0, 0, "''")) == "Enriques"
    assert birational_type(L(0, 2, 0, 1, 0, "'''")) == "Enriques"
    assert birational_type(L(0, 1, 1, 1, 0, "''''")) == "Enriques"
    assert birational_type(L(0, 1, 1, 1, 0, "''")) == "Rational"
    assert birational_type(L(0, 3, 0, 1, 0, "'")) == "Ruled of genus 1"
    assert birational_type(L(1, 0, 0, 0, 0)) == "K3-Surface"
    assert birational_type(L(4, 0, 0, 0, 0)) == "P^2 disjoint-union P^2"
    assert birational_type(L(2, 0, 0, 0, 0)) == "Weak del Pezzo of degree 2"


def test_simply_elliptic_diagram_shape():
    graph = degeneration_graph("simply-elliptic")
    assert len(graph.nodes) == 18
    assert len(graph.edges) == 29
    ids = {n.ascii_id() for n in graph.nodes}
    assert len(ids) == 18

    for src, dst in graph.edges:
        assert degeneration_rule(src, dst), (src.display(), dst.display())
        assert hodge_leq(hodge_type(src.untagged()), hodge_type(dst.untagged()))


def test_label_level_rule_examples():
    assert degeneration_rule(L(0, 2, 0, 0, 0), L(0, 1, 1, 0, 0))    # a cusp may appear
    assert not degeneration_rule(L(0, 0, 1, 0, 0), L(0, 1, 0, 0, 0))  # a cusp never relaxes
    assert not degeneration_rule(L(0, 0, 0, 0, 1), L(0, 0, 0, 1, 0))


def test_full_rules_graph_is_monotone():
    graph = degeneration_graph("full-rules")
    assert len(graph.nodes) == 37
    for src, dst in graph.edges:
        assert degeneration_rule(src, dst)


def test_hodge_monotone_along_every_label_level_degeneration():
    labels = inhabited_normal_labels()
    pairs = 0
    for src in labels:
        for dst in labels:
            if src != dst and degeneration_rule(src, dst):
                assert hodge_leq(hodge_type(src), hodge_type(dst)), (src.display(), dst.display())
                pairs += 1
    assert pairs > 100


def test_dot_output():
    dot = degeneration_graph("simply-elliptic").to_dot()
    assert dot.startswith("digraph")
    assert "N_12_p ->" in dot or "N_12_p " in dot


def test_records_use_their_own_witness_key():
    from octica.witnesses import WITNESS_BUILDERS
    assert L(0, 1, 0, 1, 0, "''").ascii_id() == "N_12_pp"
    records = build_catalogue()
    for record in records:
        if record.label.ascii_id() in WITNESS_BUILDERS:
            assert record.witness_key == record.label.ascii_id(), record.label.display()
    by_label = {record.label: record for record in records}
    assert by_label[L(0, 1, 0, 1, 0, "''")].witness_key == "N_12_pp"
    used = {record.witness_key for record in records}
    assert {"N_12_pp", "N_111_pp", "N_112_pp", "N_112_ppp", "N_122_pp", "N_1112_pp"} <= used


def test_ascii_ids_are_dot_safe():
    for record in build_catalogue():
        ident = record.label.ascii_id()
        assert all(c.isalnum() or c == "_" for c in ident), ident


def test_label_from_id_inverts_ascii_id():
    records = build_catalogue()
    labels = [r.label for r in records] + [r.label.untagged() for r in records]
    assert any(r.empty for r in records) and any(r.label.n for r in records)
    assert any(l.tag for l in labels)
    for label in labels:
        assert label_from_id(label.ascii_id()) == label
    for ident in ("N_3", "M_5_empty", "N_12_q", "N_", "X_1", "M_0_empty", "N_21", "N_1_"):
        with pytest.raises(ValueError):
            label_from_id(ident)
