from senseparse.diagnostics import Diagnostics


def test_replay_keeps_order():
    buffered = Diagnostics()
    buffered.note("dropped-advice", "s01 bass (13, 17): no type")
    buffered.note("dropped", "x")
    log = Diagnostics()
    log.note("dropped", "y")
    log.replay(buffered)
    assert log.lines() == [
        "dropped y", "dropped-advice s01 bass (13, 17): no type", "dropped x",
    ]
