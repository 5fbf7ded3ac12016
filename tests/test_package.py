import duelsim


def test_all_names_resolve_without_duplicates():
    assert len(duelsim.__all__) == len(set(duelsim.__all__))
    for name in duelsim.__all__:
        assert hasattr(duelsim, name), name
