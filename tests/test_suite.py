"""The validation registry: one row per check, and the records it names."""

from triwish import suite


def test_registry_row_names_are_unique():
    names = [name for name, _, _ in suite.REGISTRY]
    assert len(names) == 23
    assert len(set(names)) == len(names)


def test_run_checks_runs_the_rows_in_registry_order(monkeypatch):
    # Each stub records the arguments its row passed and returns one record
    # per suffix, named as the real checks name theirs.
    calls = []

    def stub(*suffixes):
        def check(name, seed, **kwargs):
            calls.append((name, seed, kwargs))
            return [suite.CheckRecord(name + s, {}, 0.0, 0.0, True, seed) for s in suffixes]
        return check

    rows = [
        ("b.fill", stub(".diag", ".offdiag"), {"stream": 2}),
        ("a.plain", stub(""), {}),
        ("c.plain", stub(""), {"algorithm": "direct"}),
    ]
    monkeypatch.setattr(suite, "REGISTRY", rows)
    records = suite.run_checks(7)
    assert calls == [("b.fill", 7, {"stream": 2}), ("a.plain", 7, {}),
                     ("c.plain", 7, {"algorithm": "direct"})]
    assert [r.check for r in records] == ["b.fill.diag", "b.fill.offdiag", "a.plain", "c.plain"]
    calls.clear()
    assert [r.check for r in suite.run_checks(7, "c.plain,b")] == [
        "b.fill.diag", "b.fill.offdiag", "c.plain",
    ]
    assert [name for name, _, _ in calls] == ["b.fill", "c.plain"]

