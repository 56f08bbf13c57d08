"""The paper-tables comparison document."""
from primelab import brun, census, reports


def test_document_walks_the_twins_once(monkeypatch):
    # the Brun rows carry the pair counts the census table prints
    calls = {"count_pairs_2k": 0, "brun_partial": 0}
    for mod, name in ((census, "count_pairs_2k"), (brun, "brun_partial")):
        def spy(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, spy)
    reports.build_comparison_document(10**5)
    assert calls == {"count_pairs_2k": 0, "brun_partial": 1}
