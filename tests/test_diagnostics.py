from senseparse.diagnostics import Diagnostics


def test_count_reads_whole_kinds_and_replay_keeps_order():
    buffered = Diagnostics()
    buffered.note("dropped-advice", "s01 bass (13, 17): no type")
    buffered.note("dropped", "x")
    log = Diagnostics()
    log.note("dropped", "y")
    log.replay(buffered)
    assert log.lines() == [
        "dropped y", "dropped-advice s01 bass (13, 17): no type", "dropped x",
    ]
    assert (log.count("dropped"), log.count("dropped-advice"), log.count("drop")) == (2, 1, 0)
