from senseparse.diagnostics import DISCARD, Diagnostics


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


def test_note_puts_a_given_sentence_id_before_the_message():
    log = Diagnostics()
    log.note("dropped-advice", "bass (13, 17): no type", "s01")
    log.note("skipped-prehint", "bass fish: no compatible template", "")
    assert log.lines() == [
        "dropped-advice s01 bass (13, 17): no type",
        "skipped-prehint bass fish: no compatible template",
    ]


def test_discard_keeps_no_note_and_leaves_a_replayed_sink_alone():
    buffered = Diagnostics()
    buffered.note("dropped", "x")
    DISCARD.note("dropped", "y", "s01")
    DISCARD.replay(buffered)
    assert DISCARD.lines() == []
    assert buffered.lines() == ["dropped x"]
