import steelnav


def test_all_names_resolve_once():
    names = steelnav.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(steelnav, n)] == []
