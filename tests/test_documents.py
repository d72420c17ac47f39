"""Fresh CLI documents against the stored ones (``cli_documents``; regenerate with that script)."""

from cli_documents import cases, compare_run, field_report, run, stored


def test_documents_match_stored():
    expected = stored()
    runs = cases()
    assert sorted(runs) == sorted(expected), "the stored runs differ from cli_documents.cases()"
    worst, errors, identical = {}, [], 0
    for name, argv in runs.items():
        fresh = run(argv)
        identical += fresh == expected[name]
        compare_run(name, expected[name], fresh, worst, errors)
    print(f"{identical} of {len(runs)} runs byte-identical; largest difference per field:")
    print("\n".join(field_report(worst)) or "none")
    assert not errors, "\n".join(errors[:20])
